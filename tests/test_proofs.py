"""Symbolic proofs of the paper's identities, run on the shipped kernels.

Each closed form is a private kernel: plain arithmetic over a triple
(l1, l2, l3) and component tuples, which the value types call with floats.
Here the same functions run on sympy symbols, so every identity below is
proved for all parameter triples and all components at once, by expanding
the difference of the two sides to zero.  The kernels are imported, never
retyped: this file writes only the other side of each identity.  The first
proof ties the product and multiplication-matrix kernels to the paper's
definition, the multiplication table, through ``gq3.oracle``'s table product,
so every later proof rests on a kernel checked against that definition.
"""

import sympy as sp

from gq3.core import _bilinear, _dot, _product, _wedge
from gq3.lie import _adjoint_polynomials, _killing_of_form
from gq3.matrices import _eigen, _mult_rows, _skew_rows
from gq3.oracle import _table_product

LAM = sp.symbols("l1 l2 l3")
P, Q, R = (sp.symbols(f"{name}0:4") for name in "pqr")
U, V = (sp.symbols(f"{name}1:4") for name in "uv")
BASIS = [tuple(int(i == j) for j in range(4)) for i in range(4)]


def vanishes(*exprs) -> bool:
    """True when every expression, or every entry of a matrix, expands to zero."""
    entries = (e for x in exprs for e in (x if isinstance(x, sp.MatrixBase) else [x]))
    return all(sp.expand(e) == 0 for e in entries)


def mul(a, b):
    return _product(LAM, a, b)


def conj(a):
    return (a[0], *(-c for c in a[1:]))


def norm(a):
    return _dot(LAM, a, a)


def left(a):
    return sp.Matrix(_mult_rows(LAM, a, 1))


def right(a):
    return sp.Matrix(_mult_rows(LAM, a, -1))


def pure(u):
    return (0, *u)


def test_product_and_multiplication_rows_follow_the_table():
    assert vanishes(sp.Matrix(mul(P, Q)) - sp.Matrix(_table_product(LAM, P, Q)))
    # Column j of the left (right) matrix is the product with e_j on the right (left).
    for j, e in enumerate(BASIS):
        assert vanishes(left(P)[:, j] - sp.Matrix(_table_product(LAM, P, e)),
                        right(P)[:, j] - sp.Matrix(_table_product(LAM, e, P)))


def test_product_is_associative():
    assert vanishes(sp.Matrix(mul(mul(P, Q), R)) - sp.Matrix(mul(P, mul(Q, R))))


def test_norm_is_multiplicative_and_dot_is_scalar_part():
    assert vanishes(norm(mul(P, Q)) - norm(P) * norm(Q))
    assert vanishes(_dot(LAM, P, Q) - mul(P, conj(Q))[0])
    # On pure quaternions the bilinear form is the dot product.
    assert vanishes(_bilinear(LAM, U, V) - _dot(LAM, pure(U), pure(V)))


def test_wedge_is_half_the_commutator():
    comm = sp.Matrix(mul(pure(U), pure(V))) - sp.Matrix(mul(pure(V), pure(U)))
    assert vanishes(comm - 2 * sp.Matrix(pure(_wedge(LAM, U, V))))


def test_multiplication_matrices_act_by_left_and_right_products():
    assert vanishes(left(P) * sp.Matrix(Q) - sp.Matrix(mul(P, Q)))
    assert vanishes(right(P) * sp.Matrix(Q) - sp.Matrix(mul(Q, P)))


def test_left_homomorphism_and_right_anti_homomorphism():
    assert vanishes(left(P) * left(Q) - left(mul(P, Q)))
    assert vanishes(right(P) * right(Q) - right(mul(Q, P)))
    assert vanishes(left(P) * right(Q) - right(Q) * left(P))


def test_left_determinant_and_characteristic_polynomial():
    lp = left(P)
    assert vanishes(lp.det(method="berkowitz") - norm(P) ** 2)
    t = sp.Symbol("t")
    quadratic = t ** 2 - 2 * P[0] * t + norm(P)
    assert vanishes(lp.charpoly(t).as_expr() - quadratic ** 2)


def test_skew_is_wedge_and_antisymmetric_under_the_metric():
    s = sp.Matrix(_skew_rows(LAM, U))
    assert vanishes(s * sp.Matrix(V) - sp.Matrix(_wedge(LAM, U, V)))
    eps = sp.Matrix(3, 3, lambda i, j: _bilinear(LAM, BASIS[i + 1][1:], BASIS[j + 1][1:]))
    assert vanishes(eps * s + s.T * eps)


def test_adjoint_polynomials_are_conjugation_by_the_product():
    adj = sp.Matrix(_adjoint_polynomials(LAM, P))
    for j in (1, 2, 3):
        image = mul(mul(P, BASIS[j]), conj(P))
        assert vanishes(image[0], sp.Matrix(image[1:]) - adj[:, j - 1])


def test_killing_form_is_trace_of_bracket_actions():
    def ad(x):
        # Column j is the bracket [x, e_j], the commutator in the algebra.
        cols = [sp.Matrix(mul(pure(x), e)) - sp.Matrix(mul(e, pure(x))) for e in BASIS[1:]]
        return sp.Matrix.hstack(*cols)[1:, :]

    ad_u, ad_v = ad(U), ad(V)
    assert vanishes(ad_u - 2 * sp.Matrix(_skew_rows(LAM, U)))
    assert vanishes((ad_u * ad_v).trace() - _killing_of_form(_bilinear(LAM, U, V)))


def test_eigenvectors_of_the_left_matrix():
    w = sp.Symbol("w")
    d = _bilinear(LAM, P[1:], P[1:])
    t_plus, t_minus, den, heads = _eigen(LAM, P, w)

    def on_root(expr):
        # Products carry w at most squared; w is a root of w^2 = -D.
        return sp.expand(expr).subs(w ** 2, -d)

    assert vanishes(on_root(t_plus * t_minus - norm(P)))
    # The last two entries of the four vectors are (1, 0), (0, 1), (1, 0), (0, 1).
    tails = [(den, 0), (0, den)] * 2
    lp = left(P)
    for t, head, tail in zip((t_plus, t_plus, t_minus, t_minus), heads, tails):
        v = sp.Matrix([*head, *tail])  # den times the eigenvector
        assert vanishes((lp * v - t * v).applyfunc(on_root))

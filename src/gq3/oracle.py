"""Brute-force reference paths used to cross-check every closed form.

Every route rests on one primitive, the paper's multiplication table and its
term-by-term product, and on no kernel or method of the modules it checks.
They are slow and that is fine; their only job is to catch transcription errors.
"""

import math
import numbers

from .core import GQuat, GVec3, ParamTriple, _require_same_params
from .errors import NonFinite, ZeroNorm
from .matrices import Mat3

__all__ = ["multiplication_table", "mul_by_table", "pow_by_repetition",
           "conjugation_columns", "killing_by_trace"]

# Scalar-part residue allowed when conjugation should land back in the pure part.
_PURE_RESIDUE_TOL = 1e-10
# e_0 (the unit scalar) to e_3 as component tuples.
_BASIS = [tuple(int(i == j) for i in range(4)) for j in range(4)]


def _table(lam):
    # The primitive, with _table_product: plain arithmetic over lam = (l1, l2, l3) and
    # component tuples, with no float literal, so tests/test_proofs.py runs it on sympy.
    l1, l2, l3 = lam
    one = l1 ** 0
    return {
        (0, 0): (one, 0), (0, 1): (one, 1), (0, 2): (one, 2), (0, 3): (one, 3),
        (1, 0): (one, 1), (1, 1): (-l1 * l2, 0), (1, 2): (l1, 3), (1, 3): (-l2, 2),
        (2, 0): (one, 2), (2, 1): (-l1, 3), (2, 2): (-l1 * l3, 0), (2, 3): (l3, 1),
        (3, 0): (one, 3), (3, 1): (l2, 2), (3, 2): (-l3, 1), (3, 3): (-l2 * l3, 0),
    }


def _table_product(lam, a, b):
    # All 16 term pairs through the table, each sum from an exact +0 in the table's order.
    out = [0, 0, 0, 0]
    for (i, j), (w, k) in _table(lam).items():
        out[k] += a[i] * b[j] * w
    return out


def _conj(a):
    return (a[0], -a[1], -a[2], -a[3])


def _bracket(lam, u, v):
    return [s - t for s, t in zip(_table_product(lam, u, v), _table_product(lam, v, u))]


def _inverse(lam, a):
    # conj(a) over the table norm, the scalar part of a*conj(a); null (ZeroNorm) when at
    # most 1e-12 times the sum of its terms' sizes, the table norm of |a| over |lam|.
    n = _table_product(lam, a, _conj(a))[0]
    mags = tuple(map(abs, a))
    size = _table_product(tuple(map(abs, lam)), mags, _conj(mags))[0]
    if not math.isfinite(size):
        raise NonFinite("norm overflows")
    if abs(n) <= 1e-12 * size:
        raise ZeroNorm(f"quaternion {a} has norm {n}, not invertible")
    return tuple(c / n for c in _conj(a))


def multiplication_table(params: ParamTriple) -> dict[tuple[int, int], tuple[float, int]]:
    """The literal, closed basis product table: (i, j) -> (w, k) for e_i * e_j = w * e_k."""
    return _table(params._lam)


def mul_by_table(p: GQuat, q: GQuat) -> GQuat:
    """Product by expanding all 16 basis term pairs through the table."""
    _require_same_params(p.params, q.params)
    return GQuat(*_table_product(p.params._lam, p.components, q.components), p.params)


def pow_by_repetition(p: GQuat, n: int) -> GQuat:
    """n-fold left-associated table product; inverse chain (ZeroNorm if null) for n < 0."""
    if not isinstance(n, numbers.Integral):
        raise TypeError(f"exponent must be an integer, got {type(n).__name__}")
    lam = p.params._lam
    base = p.components if n >= 0 else _inverse(lam, p.components)
    acc = _BASIS[0]
    for _ in range(abs(n)):
        acc = _table_product(lam, acc, base)
    return GQuat(*acc, p.params)


def conjugation_columns(p: GQuat) -> Mat3:
    """Adjoint matrix by literal conjugation: column j is p * e_j * p^(-1), two table products.

    Its scalar parts must come out (numerically) zero, which is checked here; ZeroNorm on null p.
    """
    lam, a = p.params._lam, p.components
    a_inv = _inverse(lam, a)
    cols = []
    for j in (1, 2, 3):
        r0, *r = _table_product(lam, _table_product(lam, a, _BASIS[j]), a_inv)
        if abs(r0) > _PURE_RESIDUE_TOL * (1.0 + max(map(abs, r))):
            raise ArithmeticError(f"conjugated basis vector has scalar residue {r0}; "
                                  "conjugation should preserve the pure part")
        cols.append(r)
    return Mat3(list(zip(*cols)))


def killing_by_trace(x: GVec3, y: GVec3) -> float:
    """The trace of v -> [x, [y, v]]: coordinate j of table commutators, summed from +0."""
    _require_same_params(x.params, y.params)
    lam, xq, yq = x.params._lam, (0, *x.components), (0, *y.components)
    return sum(_bracket(lam, xq, _bracket(lam, yq, _BASIS[j]))[j] for j in (1, 2, 3))

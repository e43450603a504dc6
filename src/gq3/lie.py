"""Lie structure of the unit-norm group: bracket, adjoint action, Killing form.

The pure quaternions form the tangent space at the identity of the group of
unit-norm elements.  The bracket here is the full commutator x*y - y*x (not
the half-commutator), so the basis relations carry a factor of two:

    [e1, e2] = 2*lambda1*e3
    [e2, e3] = 2*lambda3*e1
    [e3, e1] = 2*lambda2*e2

All 3x3 matrices act on vector coordinates (a1, a2, a3).  The diagonal metric
``eps = diag(l12, l13, l23)`` is preserved by the adjoint action of unit
elements, and the Killing form works out to -8 times the bilinear form, which
is what makes the all-positive families compact.
"""

from __future__ import annotations

from .core import GQuat, GVec3, ParamTriple, bilinear_f, wedge
from .errors import NotPositiveFamily
from .matrices import Mat3, _skew_rows
from .polar import UNIT_AXIS_TOL, _cos_sin, _require_unit_axis

__all__ = [
    "metric_eps",
    "bracket",
    "adjoint_group",
    "adjoint_closed_form",
    "skew_of_axis",
    "adjoint_rodrigues",
    "ad_matrix",
    "killing_form",
    "killing_matrix",
    "is_compact",
]


def metric_eps(params: ParamTriple) -> Mat3:
    """The diagonal metric diag(l12, l13, l23) on vector coordinates.

    Entries are plain products of the parameters, so the matrix is exact;
    off-diagonal entries are exactly zero.
    """
    return _diagonal(params, params.l12, params.l13, params.l23)


def _diagonal(params: ParamTriple, d1: float, d2: float, d3: float) -> Mat3:
    # The diagonal Mat3 of metric_eps and killing_matrix; off-diagonal +0.0.
    return Mat3([[d1, 0.0, 0.0], [0.0, d2, 0.0], [0.0, 0.0, d3]], params)


def bracket(x: GVec3, y: GVec3) -> GVec3:
    """Lie bracket [x, y], the bilinear extension of the basis relations.

    Coincides with the commutator x*y - y*x of the embedded pure quaternions
    (whose scalar parts cancel by symmetry of the bilinear form), which is
    twice the weighted cross product.
    """
    return wedge(x, y).scale(2.0)


def adjoint_group(p: GQuat) -> Mat3:
    """Matrix of the conjugation action q -> p*q*p^(-1) on vector coordinates.

    Column j holds the coordinates of p*e_j*p^(-1), computed from the closed
    form: the polynomial entries of ``adjoint_closed_form`` divided by
    norm(p).  Conjugation is scale-invariant, so this holds for any invertible
    p; for unit p the matrix preserves ``metric_eps`` with determinant one.
    Raises ZeroNorm on null p.  Literal conjugation of the basis vectors is
    ``oracle.conjugation_columns``, which the tests compare against.
    """
    n = p._nonnull_norm()
    rows = _adjoint_polynomials(p.params.as_tuple(), p.components)
    return Mat3([[e / n for e in row] for row in rows], p.params)


def adjoint_closed_form(p: GQuat) -> Mat3:
    """The adjoint action written as polynomials in the components of p.

    These are the entries the conjugation action takes on unit quaternions,
    kept polynomial (no division by the norm), so for general p the matrix
    equals norm(p) times ``adjoint_group(p)``.  Consequently it transforms the
    metric by norm(p)^2 and has determinant norm(p)^3 for every p, unit or
    not.
    """
    return Mat3(_adjoint_polynomials(p.params.as_tuple(), p.components), p.params)


def _adjoint_polynomials(lam, a):
    # Kernel (see core): rows of the adjoint action of a as polynomials in
    # its components, equal to a*e_j*conj(a) in column j.
    l1, l2, l3 = lam
    a0, a1, a2, a3 = a
    return [
        [a0 * a0 + l1 * l2 * a1 * a1 - l1 * l3 * a2 * a2 - l2 * l3 * a3 * a3,
         2.0 * l1 * l3 * a1 * a2 - 2.0 * l3 * a0 * a3,
         2.0 * l2 * l3 * a1 * a3 + 2.0 * l3 * a0 * a2],
        [2.0 * l1 * l2 * a1 * a2 + 2.0 * l2 * a0 * a3,
         a0 * a0 - l1 * l2 * a1 * a1 + l1 * l3 * a2 * a2 - l2 * l3 * a3 * a3,
         2.0 * l2 * l3 * a2 * a3 - 2.0 * l2 * a0 * a1],
        [2.0 * l1 * l2 * a1 * a3 - 2.0 * l1 * a0 * a2,
         2.0 * l1 * l3 * a2 * a3 + 2.0 * l1 * a0 * a1,
         a0 * a0 - l1 * l2 * a1 * a1 - l1 * l3 * a2 * a2 + l2 * l3 * a3 * a3],
    ]


def skew_of_axis(s: GVec3) -> Mat3:
    """Lambda-weighted skew matrix of a direction vector.

    Satisfies eps @ S = -(S.T @ eps), and the matrix commutator of two such
    skews is the skew of the weighted cross product of their axes.  This is
    the generator appearing in the rotation-style decomposition of the
    adjoint action.
    """
    return Mat3(_skew_rows(s.params.as_tuple(), s.components), s.params)


def adjoint_rodrigues(axis: GVec3, theta: float, *, axis_tol: float = UNIT_AXIS_TOL) -> Mat3:
    """Adjoint of the half-angle element as I + sin(theta)*S + (1-cos(theta))*S^2.

    Defined for all-positive parameter families (where the bilinear form is
    positive definite) and a unit axis; equals
    adjoint_group(cos(theta/2) + axis*sin(theta/2)).
    """
    if not axis.params.is_positive:
        raise NotPositiveFamily(
            f"rotation decomposition needs all lambdas > 0, got {axis.params.as_tuple()}")
    _require_unit_axis(axis, axis_tol, "axis")
    s = skew_of_axis(axis)
    c, st = _cos_sin(theta)
    ct = 1.0 - c
    # Entry by entry as (I + st*S) + ct*S^2: another order changes the last bits.
    return Mat3([[float(i == j) + st * a + ct * b for j, (a, b) in enumerate(zip(row, sq_row))]
                 for i, (row, sq_row) in enumerate(zip(s, s @ s))], axis.params)


def ad_matrix(x: GVec3) -> Mat3:
    """Matrix of y -> [x, y] on vector coordinates (twice the weighted skew).

    Built as the skew of the doubled vector: doubling is exact, so the
    entries equal 2 * skew_of_axis(x) bit for bit.
    """
    return Mat3(_skew_rows(x.params.as_tuple(), (2.0 * x.a1, 2.0 * x.a2, 2.0 * x.a3)), x.params)


def _killing_of_form(f: float) -> float:
    # -8*f, with zero as +0.0 (the value the trace gives): -8.0 * 0.0 is -0.0,
    # which JSON prints differently.
    return -8.0 * f + 0.0


def killing_form(x: GVec3, y: GVec3) -> float:
    """Killing form: the trace of ad_matrix(x) @ ad_matrix(y).

    Evaluated by its closed form, -8 times the bilinear form; the trace
    definition is ``oracle.killing_by_trace``, which the tests compare against.
    """
    return _killing_of_form(bilinear_f(x, y))


def killing_matrix(params: ParamTriple) -> Mat3:
    """Gram matrix of the Killing form over the vector basis (e1, e2, e3).

    The basis is orthogonal under the bilinear form, so the matrix is the
    diagonal -8 * (l12, l13, l23); off-diagonal entries are exactly +0.0.
    """
    return _diagonal(params, *map(_killing_of_form, (params.l12, params.l13, params.l23)))


def is_compact(params: ParamTriple) -> bool:
    """Whether the unit-norm group of this family is compact.

    True exactly when all three parameters are positive; then the Killing
    form is negative definite on nonzero vectors.
    """
    return params.is_positive

"""Fundamental 4x4 matrix representations and their spectral data.

Left multiplication by a fixed quaternion is a linear map on components; its
matrix realizes the whole algebra as a subring of the real 4x4 matrices.  The
right-multiplication matrix plays the mirror role (and is an
anti-homomorphism).  Because the representation is so rigid, the determinant,
characteristic polynomial, eigenvalues and eigenvectors all have closed forms,
implemented here directly rather than through a general eigensolver.

Complex numbers appear only in the eigen data; everything else is real.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .core import GQuat, ParamTriple
from .errors import DegenerateAxis

__all__ = [
    "Mat3",
    "Mat4",
    "CharPoly",
    "EigenPair",
    "left_matrix",
    "right_matrix",
    "base_matrices",
    "det4",
    "char_poly",
    "eigenvalues",
    "eigenvectors",
]

# Relative threshold under which the eigenvector denominator counts as zero.
_DEGENERATE_REL = 1e-12


class _TaggedMatrix(np.ndarray):
    """Dense real matrix that remembers the parameter triple it came from.

    Thin ndarray subclass: all numpy arithmetic works, results keep the tag of
    the left operand.  The tag is provenance only; it is never consulted by
    numpy itself.
    """

    _shape: tuple[int, int] = ()

    def __new__(cls, data, params: ParamTriple | None = None):
        arr = np.array(data, dtype=float)
        if arr.shape != cls._shape:
            raise ValueError(f"{cls.__name__} needs shape {cls._shape}, got {arr.shape}")
        # isfinite flags NaN and +-inf without a RuntimeWarning; count_nonzero
        # skips the Python-level dispatch of np.all.
        if np.count_nonzero(np.isfinite(arr)) != arr.size:
            raise ValueError(f"{cls.__name__} entries must be finite")
        arr.setflags(write=False)
        obj = arr.view(cls)
        obj.params = params
        return obj

    def __array_finalize__(self, obj):
        if obj is None:
            return
        self.params = getattr(obj, "params", None)

    def rows(self) -> list[list[float]]:
        """Row-major nested lists, the JSON wire format."""
        return self.tolist()


class Mat4(_TaggedMatrix):
    _shape = (4, 4)


class Mat3(_TaggedMatrix):
    _shape = (3, 3)


def left_matrix(p: GQuat) -> Mat4:
    """Matrix of q -> p*q acting on component columns (b0, b1, b2, b3).

    Additive and multiplicative in p: the map p -> left_matrix(p) is an
    injective ring homomorphism into the 4x4 real matrices.
    """
    return Mat4(_left_rows(p.params, *p.components), p.params)


def _left_rows(params: ParamTriple, a0: float, a1: float, a2: float,
               a3: float) -> list[list[float]]:
    # Rows of the left-multiplication matrix of a0 + a1*e1 + a2*e2 + a3*e3,
    # shared with polar.polar_matrix, which passes (cos t, sin t * axis).
    l1, l2, l3 = params.as_tuple()
    return [
        [a0, -l1 * l2 * a1, -l1 * l3 * a2, -l2 * l3 * a3],
        [a1, a0, -l3 * a3, l3 * a2],
        [a2, l2 * a3, a0, -l2 * a1],
        [a3, -l1 * a2, l1 * a1, a0],
    ]


def right_matrix(p: GQuat) -> Mat4:
    """Matrix of q -> q*p acting on component columns.

    Anti-multiplicative in p, and commutes with every left-multiplication
    matrix (left and right multiplications always commute).
    """
    l1, l2, l3 = p.params.as_tuple()
    a0, a1, a2, a3 = p.components
    return Mat4([
        [a0, -l1 * l2 * a1, -l1 * l3 * a2, -l2 * l3 * a3],
        [a1, a0, l3 * a3, -l3 * a2],
        [a2, -l2 * a3, a0, l2 * a1],
        [a3, l1 * a2, -l1 * a1, a0],
    ], p.params)


def base_matrices(params: ParamTriple) -> tuple[Mat4, Mat4, Mat4, Mat4]:
    """Images (E0, E1, E2, E3) of the basis elements under ``left_matrix``.

    E0 is the identity; the others reproduce the multiplication table as
    exact matrix identities, e.g. E1 @ E2 == lambda1 * E3.
    """
    return tuple(left_matrix(GQuat.basis(i, params)) for i in range(4))


def _det3(m, r0: int, r1: int, r2: int, c0: int, c1: int, c2: int) -> float:
    return (m[r0][c0] * (m[r1][c1] * m[r2][c2] - m[r1][c2] * m[r2][c1])
            - m[r0][c1] * (m[r1][c0] * m[r2][c2] - m[r1][c2] * m[r2][c0])
            + m[r0][c2] * (m[r1][c0] * m[r2][c1] - m[r1][c1] * m[r2][c0]))


def det4(m) -> float:
    """Determinant of a 4x4 matrix by cofactor expansion along the first row.

    Deliberately the explicit small-size formula (no pivoting, no numpy
    linear algebra) so the value is easy to audit; for a left-multiplication
    matrix it equals the squared quaternion norm.
    """
    a = np.asarray(m, dtype=float)
    if a.shape != (4, 4):
        raise ValueError(f"det4 needs a 4x4 matrix, got shape {a.shape}")
    rows = a.tolist()
    sign = 1.0
    total = 0.0
    cols = (0, 1, 2, 3)
    for j in cols:
        rest = tuple(c for c in cols if c != j)
        total += sign * rows[0][j] * _det3(rows, 1, 2, 3, *rest)
        sign = -sign
    return total


@dataclass(frozen=True)
class CharPoly:
    """Characteristic polynomial of a left-multiplication matrix.

    Always the perfect square of a quadratic, so it is stored both ways:
    ``coefficients`` holds the expanded degree-4 coefficients (low to high,
    leading coefficient 1) and ``quadratic`` the repeated factor
    t^2 - 2*a0*t + norm (low to high).
    """

    coefficients: tuple[float, float, float, float, float]
    quadratic: tuple[float, float, float]

    def __call__(self, t: complex) -> complex:
        acc = 0j
        for c in reversed(self.coefficients):
            acc = acc * t + c
        return acc


def char_poly(p: GQuat) -> CharPoly:
    """Characteristic polynomial (t^2 - 2*a0*t + norm(p))^2 of left_matrix(p)."""
    b = -2.0 * p.a0
    c = p.norm()
    return CharPoly(
        coefficients=(c * c, 2.0 * b * c, b * b + 2.0 * c, 2.0 * b, 1.0),
        quadratic=(c, b, 1.0),
    )


@dataclass(frozen=True)
class EigenPair:
    """One eigenvalue of a left-multiplication matrix, optionally with a vector.

    Eigenvalues come in a conjugate pair, each of algebraic multiplicity two;
    ``vector`` is None when only the value is being reported.
    """

    value: complex
    vector: tuple[complex, complex, complex, complex] | None = None
    multiplicity: int = 2


def _axis_discriminant(p: GQuat) -> float:
    pr = p.params
    return pr.l12 * p.a1 * p.a1 + pr.l13 * p.a2 * p.a2 + pr.l23 * p.a3 * p.a3


def eigenvalues(p: GQuat) -> tuple[EigenPair, EigenPair]:
    """Both eigenvalues a0 +/- sqrt(-D) of left_matrix(p), multiplicity 2 each.

    D is the weighted sum of squared vector components; the values are a
    complex-conjugate pair when D > 0 and real when D <= 0.  Their product is
    the quaternion norm.
    """
    d = _axis_discriminant(p)
    w = cmath.sqrt(complex(-d, 0.0))
    return (EigenPair(p.a0 + w), EigenPair(p.a0 - w))


def eigenvectors(p: GQuat) -> list[EigenPair]:
    """The four closed-form eigenvectors of left_matrix(p).

    Two vectors (patterns ending in (1, 0) and (0, 1)) belong to each
    eigenvalue.  The closed forms share the denominator
    lambda1*a2^2 + lambda2*a3^2; when that vanishes no formula applies and
    DegenerateAxis is raised.
    """
    l1, l2, _ = p.params.as_tuple()
    a0, a1, a2, a3 = p.components
    den = l1 * a2 * a2 + l2 * a3 * a3
    den_scale = abs(l1) * a2 * a2 + abs(l2) * a3 * a3
    if den_scale == 0.0 or abs(den) <= _DEGENERATE_REL * den_scale:
        raise DegenerateAxis(
            f"eigenvector denominator lambda1*a2^2 + lambda2*a3^2 = {den} vanishes")

    d = _axis_discriminant(p)
    w = cmath.sqrt(complex(-d, 0.0))
    t_plus = p.a0 + w
    t_minus = p.a0 - w

    v1 = ((l1 * a2 * w - l1 * l2 * a1 * a3) / den,
          (a3 * w + l1 * a1 * a2) / den, 1.0 + 0j, 0j)
    v2 = ((l2 * a3 * w + l1 * l2 * a1 * a2) / den,
          -(a2 * w - l2 * a1 * a3) / den, 0j, 1.0 + 0j)
    v3 = (-(l1 * a2 * w + l1 * l2 * a1 * a3) / den,
          -(a3 * w - l1 * a1 * a2) / den, 1.0 + 0j, 0j)
    v4 = (-(l2 * a3 * w - l1 * l2 * a1 * a2) / den,
          (a2 * w + l2 * a1 * a3) / den, 0j, 1.0 + 0j)

    return [
        EigenPair(t_plus, v1),
        EigenPair(t_plus, v2),
        EigenPair(t_minus, v3),
        EigenPair(t_minus, v4),
    ]

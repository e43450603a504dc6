"""Fundamental 4x4 matrix representations and their spectral data.

Left multiplication by a fixed quaternion is a linear map on components; its
matrix realizes the whole algebra as a subring of the real 4x4 matrices.  The
right-multiplication matrix plays the mirror role (and is an
anti-homomorphism).  Because the representation is so rigid, the determinant,
characteristic polynomial, eigenvalues and eigenvectors all have closed forms,
implemented here directly rather than through a general eigensolver.

Complex numbers appear only in the eigen data; everything else is real.
"""

import cmath
import math
from functools import reduce
from itertools import chain
from operator import add, mul

from .core import GQuat, ParamTriple, _Record, _bilinear_of, _dot, _finite, _vanishes
from .errors import DegenerateAxis, NonFinite, _show

__all__ = [
    "Mat3",
    "Mat4",
    "CharPoly",
    "left_matrix",
    "right_matrix",
    "base_matrices",
    "det4",
    "char_poly",
    "eigenvalues",
    "eigenvectors",
]

# The name is the one bench/spans.py counts matrices.mat_new under.
class _TaggedMatrix(tuple):
    """Read-only real square matrix: a tuple of row tuples of floats.

    Rows index and iterate as usual, ``m[i][j]`` reads one entry, and ``json``
    writes nested arrays.  ``@`` between two matrices of the same shape sums
    each entry left to right from 0.0.  ``np.asarray(m)`` reads the rows as a
    sequence and gives a float64 array.  Attributes are read-only.
    """

    shape: tuple[int, int] = ()

    def __new__(cls, data):
        return cls._of_rows(_float_rows(data, cls.shape[0], cls.__name__))

    @classmethod
    def _of_rows(cls, rows):
        # The matrix of row tuples of floats that a kernel just built, or that __new__
        # copied: the one finiteness pass, no float() copy, no shape check.
        if not all(map(math.isfinite, chain.from_iterable(rows))):
            raise NonFinite(f"{cls.__name__} entries must be finite")
        return tuple.__new__(cls, rows)

    # A tuple subclass cannot have non-empty __slots__: frozen as the records are.
    __setattr__, __delattr__ = _Record.__setattr__, _Record.__delattr__

    def __add__(self, other):
        # Not tuple concatenation (nor, below, repetition): elementwise
        # arithmetic is numpy's, on np.asarray(m).
        return NotImplemented

    __mul__ = __rmul__ = __add__

    def __matmul__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._of_rows(_matmul_rows(self, other))


def _float_rows(data, n: int, what: str) -> tuple[tuple[float, ...], ...]:
    # A copy of an n x n matrix (any sequence of rows) as row tuples of floats.
    try:
        rows = tuple([tuple(map(float, row)) for row in data])
    except TypeError as exc:
        raise ValueError(f"{what} needs {n} rows of {n} numbers: {exc}") from None
    except OverflowError:  # an int past the float range
        raise NonFinite(f"{what} entries must be finite, got {_show(data)}") from None
    if len(rows) != n or {len(row) for row in rows} != {n}:
        raise ValueError(f"{what} needs a {n}x{n} matrix, "
                         f"got rows of lengths {[len(row) for row in rows]}")
    return rows


class Mat4(_TaggedMatrix):
    shape = (4, 4)


class Mat3(_TaggedMatrix):
    shape = (3, 3)


def left_matrix(p: GQuat) -> Mat4:
    """Matrix of q -> p*q acting on component columns (b0, b1, b2, b3).

    Additive and multiplicative in p: the map p -> left_matrix(p) is an
    injective ring homomorphism into the 4x4 real matrices.
    """
    return Mat4._of_rows(_mult_rows(p.params._lam, p.components, 1))


def right_matrix(p: GQuat) -> Mat4:
    """Matrix of q -> q*p acting on component columns.

    Anti-multiplicative in p, and commutes with every left-multiplication
    matrix (left and right multiplications always commute).
    """
    return Mat4._of_rows(_mult_rows(p.params._lam, p.components, -1))


def _matmul_rows(a, b):
    # Kernel (see core): rows of a @ b, each entry summed left to right from 0.0.
    cols = tuple(zip(*b))
    return tuple([tuple([reduce(add, map(mul, row, col), 0.0) for col in cols]) for row in a])


def _skew_rows(lam, s):
    # Kernel (see core): rows of the weighted skew S(s); S(s) @ v = core._wedge(lam, s, v).
    l1, l2, l3 = lam
    s1, s2, s3 = s
    return ((0.0, -l3 * s3, l3 * s2),
            (l2 * s3, 0.0, -l2 * s1),
            (-l1 * s2, l1 * s1, 0.0))


def _mult_rows(lam, a, side):
    # Kernel (see core): rows of q -> a*q (side 1) or q -> q*a (side -1).  Under the
    # norm row: a0 on the diagonal plus the skew of side*(a1, a2, a3).
    l1, l2, l3 = lam
    a0, a1, a2, a3 = a
    skew = _skew_rows(lam, (side * a1, side * a2, side * a3))
    (_, s01, s02), (s10, _, s12), (s20, s21, _) = skew
    return ((a0, -l1 * l2 * a1, -l1 * l3 * a2, -l2 * l3 * a3),
            (a1, a0, s01, s02),
            (a2, s10, a0, s12),
            (a3, s20, s21, a0))


def base_matrices(params: ParamTriple) -> tuple[Mat4, Mat4, Mat4, Mat4]:
    """Images (E0, E1, E2, E3) of the basis elements under ``left_matrix``.

    E0 is the identity; the others reproduce the multiplication table as
    exact matrix identities, e.g. E1 @ E2 == lambda1 * E3.
    """
    return tuple(left_matrix(GQuat.basis(i, params)) for i in range(4))


def _det3(m, c0: int, c1: int, c2: int) -> float:
    # The minor of det4's expansion: rows 1, 2, 3 and columns c0, c1, c2.
    return (m[1][c0] * (m[2][c1] * m[3][c2] - m[2][c2] * m[3][c1])
            - m[1][c1] * (m[2][c0] * m[3][c2] - m[2][c2] * m[3][c0])
            + m[1][c2] * (m[2][c0] * m[3][c1] - m[2][c1] * m[3][c0]))


def det4(m) -> float:
    """Determinant of a 4x4 matrix by cofactor expansion along the first row.

    Takes any 4x4 sequence of rows, ndarray included.  Deliberately the
    explicit small-size formula (no pivoting, no linear algebra library) so
    the value is easy to audit; for a left-multiplication matrix it equals
    the squared quaternion norm.
    """
    rows = m if isinstance(m, Mat4) else _float_rows(m, 4, "det4")
    r00, r01, r02, r03 = rows[0]
    # The leading 0.0 makes a sum of zeros +0.0, whatever their signs.
    return _finite(0.0 + r00 * _det3(rows, 1, 2, 3) - r01 * _det3(rows, 0, 2, 3)
                   + r02 * _det3(rows, 0, 1, 3) - r03 * _det3(rows, 0, 1, 2))


class CharPoly(_Record):
    """Characteristic polynomial of a left-multiplication matrix.

    Always the perfect square of a quadratic, so it is stored both ways:
    ``coefficients`` holds the expanded degree-4 coefficients (low to high,
    leading coefficient 1) and ``quadratic`` the repeated factor
    t^2 - 2*a0*t + norm (low to high).  Calling it evaluates the expanded
    polynomial at t by Horner's rule.
    """

    __match_args__ = ("coefficients", "quadratic")

    def __init__(self, coefficients: tuple[float, float, float, float, float],
                 quadratic: tuple[float, float, float]):
        self._init_fields(coefficients, quadratic)

    def __call__(self, t: complex) -> complex:
        acc = 0j
        for c in reversed(self.coefficients):
            acc = acc * t + c
        return _finite(acc, cmath.isfinite)


def char_poly(p: GQuat) -> CharPoly:
    """Characteristic polynomial (t^2 - 2*a0*t + norm(p))^2 of left_matrix(p)."""
    b = -2.0 * p.a0
    c = _dot(p.params._lam, p.components, p.components)
    return CharPoly(
        # Checked low to high; finite coefficients make the quadratic's finite.
        coefficients=tuple(map(_finite, _char_coefficients(b, c))),
        quadratic=(c, b, 1.0),
    )


def _char_coefficients(b, c):
    # Kernel (see core): (t^2 + b*t + c)^2 expanded, coefficients low to high.
    return (c * c, 2.0 * b * c, b * b + 2.0 * c, 2.0 * b, 1.0)


def eigenvalues(p: GQuat) -> tuple[complex, complex]:
    """The two eigenvalues a0 + sqrt(-D) and a0 - sqrt(-D) of left_matrix(p).

    Each has multiplicity two: the characteristic polynomial is the square of
    t^2 - 2*a0*t + norm.  D = f(p, p) is the weighted sum of squared vector
    components; the values are a complex-conjugate pair when D > 0 and real
    when D <= 0.  Their product is the quaternion norm.  Raises NonFinite when
    D overflows.
    """
    return _eigen_of(p)[:2]


def eigenvectors(p: GQuat) -> tuple[tuple[complex, tuple[complex, ...]], ...]:
    """The four closed-form eigenvectors of left_matrix(p), as (value, vector) pairs.

    Two vectors (patterns ending in (1, 0) and (0, 1)) belong to each eigenvalue, in
    the order of eigenvalues(p): t+, t+, t-, t-.  The closed forms share the denominator
    lambda1*a2^2 + lambda2*a3^2; when that vanishes no formula applies and
    DegenerateAxis is raised.  NonFinite is raised when it, D or an entry overflows.
    """
    t_plus, t_minus, den, heads = _eigen_of(p)
    den_scale = _eigen_denominator(p.params._abs_lam, p.components)
    if _vanishes(den, den_scale, "eigenvector denominator lambda1*a2^2 + lambda2*a3^2"):
        raise DegenerateAxis(
            f"eigenvector denominator lambda1*a2^2 + lambda2*a3^2 = {den} vanishes")
    heads = [(n0 / den, n1 / den) for n0, n1 in heads]
    if not all(map(cmath.isfinite, chain.from_iterable(heads))):
        raise NonFinite(f"eigenvector entries overflow over the denominator {den}")
    tails = ((1.0 + 0j, 0j), (0j, 1.0 + 0j)) * 2
    return tuple((t, (*head, *tail))
                 for t, head, tail in zip((t_plus, t_plus, t_minus, t_minus), heads, tails))


def _eigen_of(p: GQuat):
    # The eigen kernel at the root w = sqrt(-D) of p.  A finite D keeps a0 +/- w finite.
    d = _bilinear_of(p, p)
    if not math.isfinite(d):
        raise NonFinite(f"axis discriminant D = {d} is not finite")
    return _eigen(p.params._lam, p.components, cmath.sqrt(complex(-d, 0.0)))


def _eigen(lam, a, w):
    # Kernel (see core): for w*w = -D, the eigenvalues a0 +/- w of the left matrix
    # of a, the denominator, and the first two numerators of each eigenvector.
    l1, l2, _ = lam
    a0, a1, a2, a3 = a
    heads = ((l1 * a2 * w - l1 * l2 * a1 * a3, a3 * w + l1 * a1 * a2),
             (l2 * a3 * w + l1 * l2 * a1 * a2, -(a2 * w - l2 * a1 * a3)),
             (-(l1 * a2 * w + l1 * l2 * a1 * a3), -(a3 * w - l1 * a1 * a2)),
             (-(l2 * a3 * w - l1 * l2 * a1 * a2), a2 * w + l2 * a1 * a3))
    return a0 + w, a0 - w, _eigen_denominator(lam, a), heads


def _eigen_denominator(lam, a):
    # Kernel (see core): lambda1*a2^2 + lambda2*a3^2, shared by the four eigenvectors.
    return lam[0] * a[2] * a[2] + lam[1] * a[3] * a[3]

"""Polar decomposition, De Moivre powers, exponentials, matrix roots, periods.

An element is *elliptic* when its axis discriminant
D = l12*a1^2 + l13*a2^2 + l23*a3^2 is strictly positive; only then does the
circular decomposition ``p = sqrt(norm) * (cos(theta) + axis*sin(theta))``
exist with a real angle and a unit axis.  With indefinite parameter families
non-elliptic elements are common; they are rejected rather than given
hyperbolic decompositions.

Angles follow a single convention everywhere: theta = atan2(sqrt(D), a0),
which lands in [0, pi] and makes the round trip unambiguous.
"""

from __future__ import annotations

import math
import numbers

from .core import GQuat, GVec3, ParamTriple, _Record, bilinear_f
from .errors import (CongruenceViolation, NonElliptic, NonFinite, NonUnit, NoPeriod,
                     NotUnitVector, ZeroNorm)
from .matrices import Mat4, _mult_rows

__all__ = [
    "PolarForm",
    "RootSet",
    "to_polar",
    "demoivre_pow",
    "polar_matrix",
    "matrix_pow",
    "euler_exp",
    "euler_exp_matrix",
    "matrix_roots",
    "power_period",
    "scaled_power_relation",
    "UNIT_NORM_TOL",
    "UNIT_AXIS_TOL",
    "PERIOD_REL_TOL",
    "MAX_ROOT_DEGREE",
]

# |norm - 1| tolerance for operations restricted to unit quaternions.
UNIT_NORM_TOL = 1e-9
# |f(axis, axis) - 1| tolerance for unit-vector preconditions.
UNIT_AXIS_TOL = 1e-10
# Relative tolerance for recognizing 2*pi/theta as an integer.
PERIOD_REL_TOL = 1e-9
# Largest degree matrix_roots accepts: it builds one matrix per root.
MAX_ROOT_DEGREE = 1024


class PolarForm(_Record):
    """Decomposition modulus * (cos(theta) + axis*sin(theta)).

    ``modulus`` is the positive square root of the norm and ``theta`` lies in
    [0, pi].  ``axis`` is a unit vector under the bilinear form, except for
    pure scalars, where any axis would do: then ``axis`` is None and theta is
    0 or pi.  ``compose`` accepts any modulus and angle, so De Moivre powers
    and exponentials are built through it as well.
    """

    __match_args__ = ("modulus", "theta", "axis", "params")

    def __init__(self, modulus: float, theta: float, axis: GVec3 | None, params: ParamTriple):
        self._init_fields(modulus, theta, axis, params)

    def compose(self) -> GQuat:
        """The quaternion modulus*cos(theta) + modulus*sin(theta)*axis; NonFinite on overflow."""
        c, s = _cos_sin(self.theta)
        c = self.modulus * c
        if self.axis is None:
            return GQuat.scalar(c, self.params)
        s = self.modulus * s
        return GQuat(c, s * self.axis.a1, s * self.axis.a2, s * self.axis.a3, self.params)


class RootSet(_Record):
    """All nth roots of a unit-quaternion matrix, indexed k = 0..degree-1."""

    __match_args__ = ("degree", "roots")

    def __init__(self, degree: int, roots: tuple[Mat4, ...]):
        self._init_fields(degree, roots)


def to_polar(p: GQuat) -> PolarForm:
    """Decompose an elliptic quaternion into modulus, angle and unit axis.

    theta = atan2(sqrt(D), a0) in [0, pi]; axis = vector part / sqrt(D).
    Pure scalars get theta 0 or pi with axis None instead of a fabricated
    axis; only the zero scalar has no polar form.  Raises ZeroNorm when the
    norm is not positive (or vanishes, as in ``GQuat.inverse``), NonFinite
    when its terms overflow and NonElliptic when D <= 0 for a non-scalar.
    """
    if p.a1 == 0.0 and p.a2 == 0.0 and p.a3 == 0.0:
        if p.a0 == 0.0:
            raise ZeroNorm("zero quaternion has no polar form")
        theta = 0.0 if p.a0 > 0 else math.pi
        return PolarForm(abs(p.a0), theta, None, p.params)

    n, null = p._null_norm()
    if null or n < 0.0:
        raise ZeroNorm(f"norm {n} is not positive; no real modulus exists")
    d = bilinear_f(p, p)
    if d <= 0.0:
        raise NonElliptic(f"axis discriminant {d} is not positive; element is not elliptic")

    sd = math.sqrt(d)
    theta = math.atan2(sd, p.a0)
    axis = GVec3(p.a1 / sd, p.a2 / sd, p.a3 / sd, p.params)
    return PolarForm(math.sqrt(n), theta, axis, p.params)


def demoivre_pow(p: GQuat, n: int) -> GQuat:
    """Integer power via the angle map: modulus^n * (cos(n*theta) + axis*sin(n*theta)).

    Works for negative n as well (cosine is even, sine odd, and the modulus
    is positive).  Requires an elliptic input; pure scalars are rejected.
    Raises NonFinite when modulus^n, n*theta or a component overflows.
    """
    _require_int(n)
    form = _axis_polar(p)
    return PolarForm(_power(form.modulus, n), _angle(n, form.theta), form.axis,
                     p.params).compose()


def polar_matrix(axis: GVec3, theta: float) -> Mat4:
    """Left-multiplication matrix of cos(theta) + axis*sin(theta), unit axis.

    Written directly in terms of the angle so that substituting n*theta gives
    the nth power and (theta + 2*pi*k)/n gives the nth roots.
    """
    c, s = _cos_sin(theta)
    rows = _mult_rows(axis.params.as_tuple(), (c, s * axis.a1, s * axis.a2, s * axis.a3), 1)
    return Mat4(rows, axis.params)


def _cos_sin(theta: float) -> tuple[float, float]:
    # math raises a bare ValueError at +-inf; a NaN passes on to the value built from it.
    try:
        return math.cos(theta), math.sin(theta)
    except ValueError:
        raise NonFinite(f"angle {theta} is not finite") from None


def _require_int(n) -> None:
    if not isinstance(n, numbers.Integral):
        raise TypeError(f"exponent must be an integer, got {type(n).__name__}")


def _power(modulus: float, n: int) -> float:
    try:
        return modulus ** n
    except OverflowError:  # float ** int raises where the power leaves float range
        # No n in the message: str() of an int past 4,300 digits raises ValueError.
        raise NonFinite(f"modulus^n overflows for modulus = {modulus}") from None


def _angle(n: int, theta: float) -> float:
    # n*theta, the angle of the nth power; cos and sin are defined only where it is finite.
    try:
        angle = n * theta
    except OverflowError:  # n too large for a float
        angle = math.inf
    if not math.isfinite(angle):
        raise NonFinite(f"angle n*theta overflows for theta = {theta}")  # n: maybe 1000s of digits
    return angle


def _check_root_degree(n: int) -> None:
    """Raise ValueError unless 1 <= n <= MAX_ROOT_DEGREE; shared with the CLI."""
    if n < 1:
        raise ValueError(f"root degree must be >= 1, got {n}")
    if n > MAX_ROOT_DEGREE:
        raise ValueError(f"root degree must be <= {MAX_ROOT_DEGREE}, got {n}")


def _check_tolerance(tol: float, name: str) -> None:
    """Raise ValueError unless the gate tolerance ``tol`` is finite and >= 0.

    abs(x) > nan is always false, so a NaN tolerance would open every gate.
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"{name} must be finite and >= 0, got {tol!r}")


def _axis_polar(p: GQuat) -> PolarForm:
    # to_polar for the operations that turn the angle about the axis.
    form = to_polar(p)
    if form.axis is None:
        raise NonElliptic("pure scalar has no polar axis")
    return form


def _unit_polar(p: GQuat, unit_tol: float) -> PolarForm:
    _check_tolerance(unit_tol, "unit_tol")
    n = p.norm()
    if abs(n - 1.0) > unit_tol:
        raise NonUnit(f"norm {n} != 1; operation is defined for unit quaternions")
    return _axis_polar(p)


def _require_unit_axis(v: GVec3, axis_tol: float, name: str) -> None:
    # The unit-axis gate, |f(v, v) - 1| <= axis_tol, of every operation that
    # needs a unit direction; ``name`` labels the vector in the message.
    _check_tolerance(axis_tol, "axis_tol")
    ff = bilinear_f(v, v)
    if abs(ff - 1.0) > axis_tol:
        raise NotUnitVector(f"f({name}, {name}) = {ff} != 1")


def _period(theta: float) -> int:
    """The integer m >= 2 equal to 2*pi/theta within relative PERIOD_REL_TOL.

    Raises NoPeriod when there is none, NonFinite when 2*pi/theta overflows.
    """
    ratio = 2.0 * math.pi / theta  # theta > 0, as D > 0 and a0 * a0 is finite
    if not math.isfinite(ratio):
        raise NonFinite(f"2*pi/theta overflows for theta = {theta}")
    m = round(ratio)
    if not (m >= 2 and abs(ratio - m) < PERIOD_REL_TOL * ratio):
        raise NoPeriod(f"2*pi/theta = {ratio} is not an integer >= 2")
    return m


def matrix_pow(p: GQuat, n: int, *, unit_tol: float = UNIT_NORM_TOL) -> Mat4:
    """nth power of the left-multiplication matrix of a unit elliptic quaternion.

    Computed as the polar matrix at angle n*theta (negative n included via
    the even/odd symmetry of cosine and sine), never by repeated numeric
    multiplication or inversion.  Raises NonFinite when n*theta overflows.
    """
    _require_int(n)
    form = _unit_polar(p, unit_tol)
    return polar_matrix(form.axis, _angle(n, form.theta))


def euler_exp(v: GVec3, theta: float, *, axis_tol: float = UNIT_AXIS_TOL) -> GQuat:
    """Exponential cos(theta) + v*sin(theta) of a unit pure direction.

    ``v`` must satisfy f(v, v) = 1; such a vector squares to -1 in the
    algebra, making the exponential series collapse to cosine and sine.
    """
    _require_unit_axis(v, axis_tol, "v")
    return PolarForm(1.0, theta, v, v.params).compose()


def euler_exp_matrix(axis: GVec3, theta: float, *, axis_tol: float = UNIT_AXIS_TOL) -> Mat4:
    """Matrix form of the exponential: cos(theta)*I + sin(theta)*P.

    P is the left-multiplication matrix of the unit pure direction; it
    satisfies P @ P = -I, so the matrix series also collapses.
    """
    _require_unit_axis(axis, axis_tol, "axis")
    return polar_matrix(axis, theta)


def matrix_roots(p: GQuat, n: int, *, unit_tol: float = UNIT_NORM_TOL) -> RootSet:
    """All n matrix solutions of X^n = left_matrix(p) for unit elliptic p.

    Root k is the polar matrix at angle (theta + 2*pi*k)/n with the same
    axis, k = 0..n-1.  The degree n runs from 1 to MAX_ROOT_DEGREE.
    """
    _require_int(n)
    _check_root_degree(n)
    form = _unit_polar(p, unit_tol)
    roots = tuple(
        polar_matrix(form.axis, (form.theta + 2.0 * math.pi * k) / n)
        for k in range(n)
    )
    return RootSet(degree=n, roots=roots)


def power_period(p: GQuat, *, unit_tol: float = UNIT_NORM_TOL) -> int | None:
    """Smallest m >= 2 with p^(k+m) = p^k for all k, if the angle admits one.

    Exists exactly when 2*pi/theta is an integer; detected within a relative
    tolerance because theta comes out of atan2.  Returns None otherwise.
    """
    form = _unit_polar(p, unit_tol)
    try:
        return _period(form.theta)
    except NoPeriod:
        return None


def scaled_power_relation(p: GQuat, n: int, s: int) -> GQuat:
    """Reduce p^n to modulus^(n-s) * p^s using the period of the unit part.

    Requires the normalized quaternion p/modulus to have an integer power
    period m and n = s (mod m); under those conditions the returned value
    equals demoivre_pow(p, n).  Raises NonFinite when a power of the modulus overflows.
    """
    _require_int(n)
    _require_int(s)
    form = _axis_polar(p)
    m = _period(form.theta)
    if (n - s) % m != 0:
        raise CongruenceViolation(f"n - s = {(n - s) % m} != 0 (mod {m})")  # as in _power
    return demoivre_pow(p, s).scale(_power(form.modulus, n - s))

"""Domain error hierarchy.

Every error carries a stable machine-readable ``code`` so front ends (the CLI
in particular) can map failures without parsing messages.
"""

__all__ = [
    "AlgebraError",
    "ParamMismatch",
    "ZeroNorm",
    "NonElliptic",
    "NonUnit",
    "NotUnitVector",
    "DegenerateAxis",
    "NotPositiveFamily",
    "NoPeriod",
    "CongruenceViolation",
    "NonFinite",
]


def _show(value: object) -> str:
    # A caller's value as every message shows it.  repr raises ValueError for an int past 4,300
    # digits, which only a Python caller can send: JSON refuses such a literal.
    try:
        return repr(value)
    except ValueError:
        digits = "an integer of more than 4,300 digits"
        return digits if isinstance(value, int) else f"a value holding {digits}"


class AlgebraError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "algebra_error"


class ParamMismatch(AlgebraError):
    """Operands were built over different parameter triples."""

    code = "param_mismatch"


class ZeroNorm(AlgebraError):
    """The quaternion is null: |N(p)| <= 1e-12 times the sum of the sizes of N(p)'s terms."""

    code = "zero_norm"


class NonElliptic(AlgebraError):
    """The axis discriminant is not positive; no circular polar form exists."""

    code = "non_elliptic"


class NonUnit(AlgebraError):
    """The operation requires a unit-norm quaternion."""

    code = "non_unit"


class NotUnitVector(AlgebraError):
    """The operation requires a pure vector of unit length under the bilinear form."""

    code = "not_unit_vector"


class DegenerateAxis(AlgebraError):
    """The closed-form eigenvector denominator vanishes; no formula applies."""

    code = "degenerate_axis"


class NotPositiveFamily(AlgebraError):
    """The operation is only defined when all three parameters are positive."""

    code = "not_positive_family"


class NoPeriod(AlgebraError):
    """The quaternion's angle does not divide a full turn into a whole number of steps."""

    code = "no_period"


class CongruenceViolation(AlgebraError):
    """The requested exponents are not congruent modulo the power period."""

    code = "congruence_violation"


class NonFinite(AlgebraError, ValueError):
    """A value left the range of finite floats; a ValueError too, as a bad argument is."""

    code = "non_finite"

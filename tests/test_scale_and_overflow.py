"""The null test does not depend on the overall scale of the input, and overflow is typed.

The norm gate is relative: ``|N(p)| <= 1e-12`` times the sum of the sizes of N(p)'s terms.
Scaling p by c = 2**k scales every term by c*c exactly while the terms stay normal doubles,
so the gate, and with it the inverse and the polar form, follows the scaling bit for bit.
A value that leaves double range raises ``NonFinite``, which is both an ``AlgebraError``
and a ``ValueError``.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gq3 import (
    AlgebraError,
    CongruenceViolation,
    GQuat,
    Mat3,
    NonFinite,
    ParamTriple,
    adjoint_group,
    demoivre_pow,
    eigenvectors,
    matrix_pow,
    scaled_power_relation,
    to_polar,
)
from helpers import FAMILIES

H = ParamTriple.hamilton()
BIG = GQuat(1e200, 0.0, 0.0, 0.0, H)


def test_non_finite_is_an_algebra_error_and_a_value_error():
    assert issubclass(NonFinite, AlgebraError)
    assert issubclass(NonFinite, ValueError)


@pytest.mark.parametrize("compute", [
    lambda: BIG * BIG,
    lambda: BIG.scale(1e200),
    lambda: GQuat.scalar(1.5e308, H) + GQuat.scalar(1.5e308, H),
    lambda: Mat3([[math.inf, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    lambda: BIG.inverse(),
    lambda: adjoint_group(BIG),
    lambda: to_polar(GQuat(1e200, 1e200, 0.0, 0.0, H)),
    lambda: matrix_pow(GQuat(0.6, 0.8, 0.0, 0.0, H), 10**400),  # n is no float
    lambda: matrix_pow(GQuat(-0.6, 0.8, 0.0, 0.0, H), 10**308),  # n*theta is inf
    lambda: scaled_power_relation(GQuat(1e150, 1e-160, 0.0, 0.0, H), 3, 1),  # 2*pi/theta
    # Exponents too long for str(): the message must not print them.
    lambda: demoivre_pow(GQuat(2.0, 1.0, 0.0, 0.0, H), 10**5000),
    lambda: scaled_power_relation(GQuat(0.0, 1.0, 0.0, 0.0, H), 10**4300 - 1, -1),
], ids=["mul", "scale", "add", "mat3", "inverse", "adjoint", "polar", "matrix-pow-int",
        "matrix-pow-angle", "scaled-pow-period", "pow-long-n", "scaled-pow-long-n-s"])
def test_overflow_raises_non_finite(compute):
    with pytest.raises(NonFinite):
        compute()


def test_congruence_violation_with_a_long_exponent_is_typed():
    with pytest.raises(CongruenceViolation, match=r"n - s = 1 != 0 \(mod 4\)"):
        scaled_power_relation(GQuat(0.0, 1.0, 0.0, 0.0, H), 10**5000 + 1, 0)


def test_small_and_large_scalars_are_not_null():
    # A threshold with an absolute floor would take 1e-7 for zero, one that overflows
    # with the norm would take 1e200 for zero.
    tiny = GQuat(1e-7, 0.0, 0.0, 0.0, H)
    assert tiny.inverse().a0 == pytest.approx(1e7, rel=1e-15)
    assert to_polar(tiny).modulus == 1e-7
    assert to_polar(BIG).modulus == 1e200


def _outcome(f, p):
    try:
        return f(p)
    except AlgebraError as exc:
        return type(exc)


def _bits(q: GQuat) -> list[str]:
    return [c.hex() for c in q.components]  # tells -0.0 from 0.0


# Coefficients of a common magnitude 10**e: no component is so much smaller than the
# others that a term of the norm turns subnormal.
_coeff = st.floats(-4.0, 4.0).filter(lambda x: x == 0.0 or abs(x) >= 1e-2)


@st.composite
def _scaled_pair(draw):
    """(p, c, c*p) with p and c*p of magnitudes between 1e-150 and 1e150, c = 2**k."""
    params = draw(st.sampled_from(FAMILIES))
    e, target = draw(st.integers(-150, 150)), draw(st.integers(-150, 150))
    p = GQuat(*(x * 10.0 ** e for x in draw(st.lists(_coeff, min_size=4, max_size=4))),
              params)
    c = 2.0 ** round((target - e) * math.log2(10.0))
    return p, c, p.scale(c)


@settings(max_examples=300, deadline=None)
@given(_scaled_pair())
def test_null_gate_follows_scaling_by_powers_of_two(pair):
    p, c, cp = pair
    outcomes = {f: (_outcome(f, p), _outcome(f, cp))
                for f in (GQuat.inverse, to_polar, adjoint_group, eigenvectors)}
    for f, (want, got) in outcomes.items():
        if isinstance(want, type) or isinstance(got, type):
            assert got == want, f.__name__
    inv, inv_c = outcomes[GQuat.inverse]
    if not isinstance(inv, type):
        assert _bits(inv_c) == _bits(inv.scale(1.0 / c))
    form, form_c = outcomes[to_polar]
    if not isinstance(form, type):
        assert (form_c.modulus, form_c.theta, form_c.axis) == (c * form.modulus, form.theta,
                                                                form.axis)

"""Polar decomposition, De Moivre powers, exponentials, roots, periodicity."""

import math

import numpy as np
import pytest

from gq3 import (
    CongruenceViolation,
    GQuat,
    GVec3,
    NoPeriod,
    NonElliptic,
    NonUnit,
    NotUnitVector,
    ParamTriple,
    ZeroNorm,
    bilinear_f,
    demoivre_pow,
    euler_exp,
    euler_exp_matrix,
    left_matrix,
    matrix_pow,
    matrix_roots,
    polar_matrix,
    power_period,
    scaled_power_relation,
    to_polar,
)
from gq3.oracle import pow_by_repetition
from helpers import (
    POSITIVE_FAMILIES,
    as_array,
    quat_close,
    random_quat,
    random_unit_elliptic,
    random_unit_vector,
)

H = ParamTriple.hamilton()

# The worked unit quaternion with angle 2*pi/3 about the diagonal axis.
P_THIRD = GQuat(-0.5, 0.5, 0.5, 0.5, H)
# The worked unit quaternion with angle pi/4.
P_EIGHTH = GQuat(1 / math.sqrt(2), 0.5, -1 / (2 * math.sqrt(2)), 1 / (2 * math.sqrt(2)), H)


def random_elliptic(rng, params, low=0.3, high=2.0):
    """Elliptic quaternion with modulus bounded away from 0 and 1."""
    u = random_unit_elliptic(rng, params)
    return u.scale(rng.uniform(low, high))


# --- to_polar -----------------------------------------------------------------

def test_polar_of_worked_third_turn_example():
    form = to_polar(P_THIRD)
    assert form.modulus == pytest.approx(1.0, abs=1e-12)
    assert form.theta == pytest.approx(2 * math.pi / 3, abs=1e-12)
    s3 = 1 / math.sqrt(3)
    assert form.axis.components == pytest.approx((s3, s3, s3), abs=1e-12)
    assert bilinear_f(form.axis, form.axis) == pytest.approx(1.0, abs=1e-10)


def test_polar_of_scalars():
    form = to_polar(GQuat.scalar(1.0, H))
    assert (form.modulus, form.theta, form.axis) == (1.0, 0.0, None)
    form = to_polar(GQuat.scalar(-2.0, H))
    assert form.modulus == 2.0
    assert form.theta == math.pi
    assert form.axis is None
    assert form.compose().components == pytest.approx((-2.0, 0.0, 0.0, 0.0), abs=1e-12)


@pytest.mark.parametrize("params", POSITIVE_FAMILIES)
def test_polar_round_trip(rng, params):
    for _ in range(40):
        p = random_elliptic(rng, params)
        form = to_polar(p)
        assert form.modulus > 0
        assert 0 <= form.theta <= math.pi
        assert bilinear_f(form.axis, form.axis) == pytest.approx(1.0, abs=1e-10)
        back = form.compose()
        scale = max(1.0, *(abs(c) for c in p.components))
        assert quat_close(back, p, 1e-10, scale=scale)


def test_polar_round_trip_on_indefinite_family(rng):
    # elliptic elements exist in the split family too (discriminant > 0)
    split = ParamTriple.split()
    found = 0
    while found < 10:
        p = random_quat(rng, split)
        try:
            form = to_polar(p)
        except (NonElliptic, ZeroNorm):
            continue
        found += 1
        assert quat_close(form.compose(), p, 1e-10)


def test_polar_rejects_zero_and_nonpositive_norm():
    with pytest.raises(ZeroNorm):
        to_polar(GQuat(0.0, 0.0, 0.0, 0.0, H))
    split = ParamTriple.split()
    with pytest.raises(ZeroNorm):
        to_polar(GQuat(1.0, 0.0, 1.0, 0.0, split))  # null: norm 0
    with pytest.raises(ZeroNorm):
        to_polar(GQuat(0.0, 0.0, 0.0, 1.0, split))  # norm -1


def test_polar_rejects_non_elliptic():
    split = ParamTriple.split()
    p = GQuat(2.0, 0.0, 0.0, 1.0, split)  # norm 3 > 0, discriminant -1
    with pytest.raises(NonElliptic):
        to_polar(p)


# --- demoivre_pow ----------------------------------------------------------------

def test_power_of_worked_example_reduces_by_angle():
    # 5 * (2*pi/3) lands at 4*pi/3: cosine and sine are both -1/2-scaled.
    p5 = demoivre_pow(P_THIRD, 5)
    assert p5.components == pytest.approx((-0.5, -0.5, -0.5, -0.5), abs=1e-10)
    # independent route: five explicit multiplications
    assert quat_close(p5, pow_by_repetition(P_THIRD, 5), 1e-12)
    # the angle is a third of a turn, so the cube (and 21st power) is one
    p21 = demoivre_pow(P_THIRD, 21)
    assert p21.components == pytest.approx((1.0, 0.0, 0.0, 0.0), abs=1e-10)


def test_power_zero_is_one(rng):
    for params in POSITIVE_FAMILIES:
        p = random_elliptic(rng, params)
        assert demoivre_pow(p, 0).components == pytest.approx((1.0, 0.0, 0.0, 0.0), abs=0)


@pytest.mark.parametrize("params", POSITIVE_FAMILIES)
def test_power_matches_repetition(rng, params):
    for _ in range(20):
        p = random_unit_elliptic(rng, params)
        for n in range(-16, 17):
            got = demoivre_pow(p, n)
            expect = pow_by_repetition(p, n)
            assert quat_close(got, expect, 1e-8)


def test_power_of_non_unit_matches_repetition(rng):
    for _ in range(10):
        p = random_elliptic(rng, H, low=0.5, high=1.5)
        for n in range(-6, 7):
            scale = max(1.0, to_polar(p).modulus ** abs(n))
            assert quat_close(demoivre_pow(p, n), pow_by_repetition(p, n), 1e-9, scale=scale)


def test_power_requires_elliptic_input():
    with pytest.raises(NonElliptic):
        demoivre_pow(GQuat.scalar(2.0, H), 3)
    split = ParamTriple.split()
    with pytest.raises(NonElliptic):
        demoivre_pow(GQuat(2.0, 0.0, 0.0, 1.0, split), 3)
    with pytest.raises(ZeroNorm):
        demoivre_pow(GQuat(0.0, 0.0, 0.0, 0.0, H), 2)
    with pytest.raises(TypeError):
        demoivre_pow(P_THIRD, 2.5)


def test_angle_addition_closure(rng):
    # (cos a + v sin a)(cos b + v sin b) = cos(a+b) + v sin(a+b), by actual product
    for params in POSITIVE_FAMILIES:
        v = random_unit_vector(rng, params)
        for _ in range(10):
            a, b = rng.uniform(-math.pi, math.pi, size=2)
            lhs = euler_exp(v, a) * euler_exp(v, b)
            rhs = euler_exp(v, a + b)
            assert quat_close(lhs, rhs, 1e-12)


# --- matrix powers ----------------------------------------------------------------

def test_matrix_power_reproduces_identity_at_full_turns():
    a21 = matrix_pow(P_THIRD, 21)
    assert np.allclose(as_array(a21), np.eye(4), rtol=0, atol=1e-8)


def test_matrix_power_matches_quaternion_power():
    for n in range(-16, 17):
        lhs = as_array(matrix_pow(P_THIRD, n))
        rhs = as_array(left_matrix(demoivre_pow(P_THIRD, n)))
        assert np.allclose(lhs, rhs, rtol=0, atol=1e-8)


def test_matrix_power_fifth_has_negative_half_diagonal():
    a5 = as_array(matrix_pow(P_THIRD, 5))
    assert np.allclose(np.diag(a5), -0.5 * np.ones(4), rtol=0, atol=1e-10)
    assert np.allclose(a5, as_array(left_matrix(demoivre_pow(P_THIRD, 5))), atol=1e-10)


def test_matrix_power_negative_one_is_inverse(rng):
    for params in POSITIVE_FAMILIES:
        p = random_unit_elliptic(rng, params)
        lhs = as_array(matrix_pow(p, -1))
        rhs = np.linalg.inv(as_array(left_matrix(p)))
        assert np.allclose(lhs, rhs, rtol=0, atol=1e-8)


def test_matrix_power_commuting_square(rng):
    for params in POSITIVE_FAMILIES:
        for _ in range(10):
            p = random_unit_elliptic(rng, params)
            n = int(rng.integers(-16, 17))
            assert np.allclose(as_array(matrix_pow(p, n)),
                               as_array(left_matrix(demoivre_pow(p, n))),
                               rtol=0, atol=1e-8)


def test_matrix_power_requires_unit_norm():
    with pytest.raises(NonUnit):
        matrix_pow(P_THIRD.scale(2.0), 3)
    # tolerance override admits slightly off-unit input
    fuzzy = P_THIRD.scale(1.0 + 1e-7)
    with pytest.raises(NonUnit):
        matrix_pow(fuzzy, 2)
    matrix_pow(fuzzy, 2, unit_tol=1e-5)


# --- exponentials --------------------------------------------------------------------

def test_exponential_at_zero_and_half_turn(rng):
    v = random_unit_vector(rng, H)
    assert euler_exp(v, 0.0).components == pytest.approx((1.0, 0.0, 0.0, 0.0), abs=0)
    assert euler_exp(v, math.pi).components == pytest.approx((-1.0, 0.0, 0.0, 0.0), abs=1e-12)
    assert np.allclose(as_array(euler_exp_matrix(v, 0.0)), np.eye(4), atol=0)


@pytest.mark.parametrize("params", POSITIVE_FAMILIES)
def test_exponential_round_trips_through_polar(rng, params):
    for _ in range(20):
        v = random_unit_vector(rng, params)
        theta = rng.uniform(0.05, math.pi - 0.05)
        q = euler_exp(v, theta)
        form = to_polar(q)
        assert form.modulus == pytest.approx(1.0, abs=1e-12)
        assert form.theta == pytest.approx(theta, abs=1e-10)
        assert form.axis.components == pytest.approx(v.components, abs=1e-10)


def test_exponential_matrix_squares_to_minus_identity(rng):
    for params in POSITIVE_FAMILIES:
        v = random_unit_vector(rng, params)
        p = as_array(euler_exp_matrix(v, math.pi / 2))
        assert np.allclose(p @ p, -np.eye(4), rtol=0, atol=1e-12)


def test_exponential_matrix_matches_quaternion_form(rng):
    # Both are left_matrix rows of (cos t, sin t * v), so they agree exactly.
    for params in POSITIVE_FAMILIES:
        for _ in range(10):
            v = random_unit_vector(rng, params)
            theta = rng.uniform(-math.pi, math.pi)
            assert np.array_equal(as_array(euler_exp_matrix(v, theta)),
                                  as_array(left_matrix(euler_exp(v, theta))))


def test_exponential_matrix_matches_taylor_series(rng):
    # Truncated series of exp(P*theta); order 20 bounds the tail below 1e-8
    # for |theta| <= pi (the order-13 term alone is ~5e-4 at theta = pi).
    for params in POSITIVE_FAMILIES:
        v = random_unit_vector(rng, params)
        gen = as_array(euler_exp_matrix(v, math.pi / 2))
        for theta in (-math.pi, -1.7, -0.3, 0.0, 0.4, 1.2, 2.6, math.pi):
            series = np.zeros((4, 4))
            term = np.eye(4)
            series += term
            for k in range(1, 21):
                term = term @ (gen * theta) / k
                series += term
            assert np.allclose(series, as_array(euler_exp_matrix(v, theta)),
                               rtol=0, atol=1e-8)


def test_exponential_rejects_non_unit_direction():
    v = GVec3(2.0, 0.0, 0.0, H)
    with pytest.raises(NotUnitVector):
        euler_exp(v, 1.0)
    with pytest.raises(NotUnitVector):
        euler_exp_matrix(v, 1.0)
    # negative-square directions cannot be unit either
    split = ParamTriple.split()
    w = GVec3(0.0, 0.0, 1.0, split)  # f(w, w) = -1
    with pytest.raises(NotUnitVector):
        euler_exp(w, 1.0)


# --- matrix roots ---------------------------------------------------------------------

def test_first_root_is_the_matrix_itself():
    rs = matrix_roots(P_THIRD, 1)
    assert rs.degree == 1
    assert np.allclose(as_array(rs.roots[0]), as_array(left_matrix(P_THIRD)), atol=1e-12)


def test_square_roots_of_eighth_turn_sum_to_zero():
    rs = matrix_roots(P_EIGHTH, 2)
    form = to_polar(P_EIGHTH)
    assert form.theta == pytest.approx(math.pi / 4, abs=1e-12)
    expected_angles = (math.pi / 8, 9 * math.pi / 8)
    for root, angle in zip(rs.roots, expected_angles):
        assert np.allclose(as_array(root), as_array(polar_matrix(form.axis, angle)), atol=1e-12)
    assert np.allclose(as_array(rs.roots[0]) + as_array(rs.roots[1]),
                       np.zeros((4, 4)), rtol=0, atol=1e-8)


@pytest.mark.parametrize("params", POSITIVE_FAMILIES)
def test_roots_recompose_and_are_distinct(rng, params):
    for n in (2, 3, 5):
        p = random_unit_elliptic(rng, params)
        rs = matrix_roots(p, n)
        target = as_array(left_matrix(p))
        mats = [as_array(r) for r in rs.roots]
        for r in mats:
            assert np.allclose(np.linalg.matrix_power(r, n), target, rtol=0, atol=1e-8)
        for i in range(n):
            for j in range(i + 1, n):
                assert np.abs(mats[i] - mats[j]).max() > 1e-6


def test_roots_validate_input():
    with pytest.raises(NonUnit):
        matrix_roots(P_THIRD.scale(3.0), 2)
    split = ParamTriple.split()
    with pytest.raises(NonElliptic):
        matrix_roots(GQuat(0.99999999995, 0.0, 0.0, 1e-5, split), 2)
    with pytest.raises(ValueError):
        matrix_roots(P_THIRD, 0)


# --- periodicity ------------------------------------------------------------------------

def test_period_of_third_turn():
    assert power_period(P_THIRD) == 3
    for n in (4, 7):
        assert quat_close(demoivre_pow(P_THIRD, n), P_THIRD, 1e-10)
    assert quat_close(demoivre_pow(P_THIRD, 3), GQuat.one(H), 1e-10)


def test_period_of_eighth_turn():
    assert power_period(P_EIGHTH) == 8
    assert np.allclose(as_array(matrix_pow(P_EIGHTH, 8)), np.eye(4), rtol=0, atol=1e-8)
    assert np.allclose(as_array(matrix_pow(P_EIGHTH, 16)), np.eye(4), rtol=0, atol=1e-8)


def test_no_period_for_irrational_angle(rng):
    v = random_unit_vector(rng, H)
    p = euler_exp(v, 1.0)  # 2*pi is not an integer multiple of 1 radian
    assert power_period(p) is None


def test_period_respects_matrix_powers(rng):
    v = random_unit_vector(rng, H)
    p = euler_exp(v, 2 * math.pi / 5)
    m = power_period(p)
    assert m == 5
    a = as_array(matrix_pow(p, 7))
    b = as_array(matrix_pow(p, 7 + m))
    assert np.allclose(a, b, rtol=0, atol=1e-8)


def test_period_requires_unit_elliptic():
    with pytest.raises(NonUnit):
        power_period(P_THIRD.scale(2.0))
    with pytest.raises(NonElliptic):
        power_period(GQuat.scalar(1.0, H))


# --- scaled power relation ---------------------------------------------------------------

def test_scaled_power_on_unit_input_reduces_to_plain_power():
    got = scaled_power_relation(P_THIRD, 7, 1)
    assert quat_close(got, P_THIRD, 1e-10)
    assert quat_close(got, demoivre_pow(P_THIRD, 7), 1e-10)


def test_scaled_power_of_doubled_example():
    p = P_THIRD.scale(2.0)
    got = scaled_power_relation(p, 4, 1)
    expect = p.scale(8.0)  # modulus^3 * p
    assert quat_close(got, expect, 1e-10)
    assert quat_close(got, pow_by_repetition(p, 4), 1e-9, scale=16.0)
    assert quat_close(got, demoivre_pow(p, 4), 1e-8, scale=16.0)


def test_scaled_power_identity_when_exponents_match(rng):
    v = random_unit_vector(rng, H)
    p = euler_exp(v, 2 * math.pi / 5).scale(1.5)
    got = scaled_power_relation(p, 3, 3)
    assert quat_close(got, demoivre_pow(p, 3), 1e-8)


def test_scaled_power_error_paths(rng):
    v = random_unit_vector(rng, H)
    no_period = euler_exp(v, 1.0).scale(2.0)
    with pytest.raises(NoPeriod):
        scaled_power_relation(no_period, 3, 1)
    with pytest.raises(CongruenceViolation):
        scaled_power_relation(P_THIRD, 4, 2)  # period 3, 4 != 2 (mod 3)
    with pytest.raises(NonElliptic):
        scaled_power_relation(GQuat.scalar(2.0, H), 3, 1)

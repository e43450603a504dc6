"""Pointwise algebra: product, conjugate, norm, inverse, bilinear machinery."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gq3 import (
    GQuat,
    GVec3,
    ParamMismatch,
    ParamTriple,
    ZeroNorm,
    bilinear_f,
    family,
    wedge,
    wedge_triple_left,
    wedge_triple_right,
)
from helpers import FAMILIES, quat_close, random_quat, random_vec, rel_close, vec_close

from _hamilton import HQuat

H = ParamTriple.hamilton()


# --- parameter families ------------------------------------------------------

def test_family_assignments():
    assert family("hamilton").as_tuple() == (1.0, 1.0, 1.0)
    assert family("split").as_tuple() == (1.0, 1.0, -1.0)
    assert family("semi").as_tuple() == (1.0, 1.0, 0.0)
    assert family("split-semi").as_tuple() == (1.0, -1.0, 0.0)
    assert family("quarter").as_tuple() == (1.0, 0.0, 0.0)
    assert family("2param", 2.5, -0.5).as_tuple() == (1.0, 2.5, -0.5)


def test_family_rejects_unknown_names():
    with pytest.raises(ValueError):
        family("octonion")
    with pytest.raises(ValueError):
        family("hamilton", 1.0)


def test_param_triple_rejects_non_finite():
    with pytest.raises(ValueError):
        ParamTriple(1.0, float("nan"), 1.0)
    with pytest.raises(ValueError):
        ParamTriple(float("inf"), 1.0, 1.0)


def test_values_are_immutable():
    p = GQuat(1.0, 2.0, 3.0, 4.0, H)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.a0 = 5.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        H.lambda1 = 2.0


# --- addition, subtraction, scaling -----------------------------------------

@pytest.mark.parametrize("params", FAMILIES)
def test_add_componentwise(params):
    p = GQuat(1.0, 2.0, 3.0, 4.0, params)
    q = GQuat(4.0, 3.0, 2.0, 1.0, params)
    assert (p + q).components == (5.0, 5.0, 5.0, 5.0)
    assert (p - q).components == (-3.0, -1.0, 1.0, 3.0)


def test_scale_annihilation_and_additive_inverse():
    p = GQuat(1.5, -2.0, 0.5, 3.0, H)
    assert p.scale(0.0).components == (0.0, 0.0, 0.0, 0.0)
    assert (p + p.scale(-1.0)).components == (0.0, 0.0, 0.0, 0.0)
    assert (2.0 * p).components == (p * 2.0).components == (3.0, -4.0, 1.0, 6.0)


def test_mixing_params_raises():
    p = GQuat(1.0, 0.0, 0.0, 0.0, H)
    q = GQuat(1.0, 0.0, 0.0, 0.0, ParamTriple.split())
    for op in (lambda: p + q, lambda: p - q, lambda: p * q, lambda: p.dot(q)):
        with pytest.raises(ParamMismatch):
            op()
    u = GVec3(1.0, 0.0, 0.0, H)
    v = GVec3(1.0, 0.0, 0.0, ParamTriple.split())
    for op in (lambda: bilinear_f(u, v), lambda: wedge(u, v), lambda: u + v,
               lambda: wedge_triple_left(v, u, u), lambda: wedge_triple_left(u, v, u),
               lambda: wedge_triple_left(u, u, v), lambda: wedge_triple_right(v, u, u),
               lambda: wedge_triple_right(u, v, u), lambda: wedge_triple_right(u, u, v)):
        with pytest.raises(ParamMismatch):
            op()


# --- multiplication ----------------------------------------------------------

@pytest.mark.parametrize("params", FAMILIES)
def test_basis_products_follow_the_table(params):
    l1, l2, l3 = params.as_tuple()
    e = [GQuat.basis(i, params) for i in range(4)]

    def expect(prod, scalar, e1c, e2c, e3c):
        assert prod.components == pytest.approx((scalar, e1c, e2c, e3c), abs=0)

    expect(e[1] * e[2], 0.0, 0.0, 0.0, l1)
    expect(e[2] * e[1], 0.0, 0.0, 0.0, -l1)
    expect(e[2] * e[3], 0.0, l3, 0.0, 0.0)
    expect(e[3] * e[2], 0.0, -l3, 0.0, 0.0)
    expect(e[3] * e[1], 0.0, 0.0, l2, 0.0)
    expect(e[1] * e[3], 0.0, 0.0, -l2, 0.0)
    expect(e[1] * e[1], -l1 * l2, 0.0, 0.0, 0.0)
    expect(e[2] * e[2], -l1 * l3, 0.0, 0.0, 0.0)
    expect(e[3] * e[3], -l2 * l3, 0.0, 0.0, 0.0)


def test_unit_is_neutral(rng):
    for params in FAMILIES:
        one = GQuat.one(params)
        q = random_quat(rng, params)
        assert (one * q).components == q.components
        assert (q * one).components == q.components


def test_product_example_2_3_5():
    params = ParamTriple(2.0, 3.0, 5.0)
    p = GQuat(1.0, 1.0, 0.0, 0.0, params)  # 1 + e1
    e2 = GQuat.basis(2, params)
    # Expanding through the table: e1*e2 = lambda1*e3, so (1 + e1)*e2 = e2 + 2*e3.
    assert (p * e2).components == (0.0, 0.0, 1.0, 2.0)


def test_non_commutativity_witness():
    for params in FAMILIES:
        if params.lambda1 == 0.0:
            continue
        e1 = GQuat.basis(1, params)
        e2 = GQuat.basis(2, params)
        assert (e1 * e2).components != (e2 * e1).components


@pytest.mark.parametrize("params", FAMILIES)
def test_mul_associative_random(rng, params):
    for _ in range(50):
        p, q, r = (random_quat(rng, params) for _ in range(3))
        left = (p * q) * r
        right = p * (q * r)
        assert quat_close(left, right, 1e-9)


def test_zero_divisors_in_quarter_family():
    params = ParamTriple.quarter()
    e2 = GQuat.basis(2, params)
    assert e2.components != (0.0, 0.0, 0.0, 0.0)
    assert (e2 * e2).components == (0.0, 0.0, 0.0, 0.0)


# --- bilinear form and wedge --------------------------------------------------

def test_bilinear_examples():
    u = GVec3(1.0, 0.0, 0.0, H)
    assert bilinear_f(u, u) == 1.0
    zero = GVec3(0.0, 0.0, 0.0, H)
    assert bilinear_f(u, zero) == 0.0


@pytest.mark.parametrize("params", FAMILIES)
def test_bilinear_is_minus_scalar_of_product(rng, params):
    for _ in range(30):
        u, v = random_vec(rng, params), random_vec(rng, params)
        assert rel_close(bilinear_f(u, v), -(u.as_quat() * v.as_quat()).a0, 1e-12)


def test_wedge_antisymmetry_and_cross_product():
    for params in FAMILIES:
        u = GVec3(0.3, -1.7, 2.9, params)
        assert wedge(u, u).components == (0.0, 0.0, 0.0)
    ex = GVec3(1.0, 0.0, 0.0, H)
    ey = GVec3(0.0, 1.0, 0.0, H)
    assert wedge(ex, ey).components == (0.0, 0.0, 1.0)


@pytest.mark.parametrize("params", FAMILIES)
def test_wedge_is_antisymmetric_part_of_product(rng, params):
    for _ in range(30):
        u, v = random_vec(rng, params), random_vec(rng, params)
        uq, vq = u.as_quat(), v.as_quat()
        half = (vq * uq.conj() - uq * vq.conj()).scale(0.5)
        assert half.a0 == pytest.approx(0.0, abs=1e-12)
        assert vec_close(wedge(u, v), half.vector_part, 1e-10)


@pytest.mark.parametrize("params", FAMILIES)
def test_wedge_triple_identities(rng, params):
    for _ in range(30):
        p, q, r = (random_vec(rng, params) for _ in range(3))
        left = wedge_triple_left(p, q, r)
        expect = q.scale(bilinear_f(p, r)) - r.scale(bilinear_f(p, q))
        assert vec_close(left, expect, 1e-9)
        right = wedge_triple_right(p, q, r)
        expect_r = q.scale(bilinear_f(p, r)) - p.scale(bilinear_f(q, r))
        assert vec_close(right, expect_r, 1e-9)


def test_wedge_triple_degenerate_cases(rng):
    params = ParamTriple(2.0, 3.0, 5.0)
    p = random_vec(rng, params)
    q = random_vec(rng, params)
    zero = GVec3(0.0, 0.0, 0.0, params)
    assert wedge_triple_left(p, q, zero).components == (0.0, 0.0, 0.0)
    # p = q collapses the left identity to f(p,r)p - f(p,p)r
    r = random_vec(rng, params)
    got = wedge_triple_left(p, p, r)
    expect = p.scale(bilinear_f(p, r)) - r.scale(bilinear_f(p, p))
    assert vec_close(got, expect, 1e-9)


# --- conjugate ----------------------------------------------------------------

def test_conj_negates_vector_part():
    p = GQuat(1.0, 2.0, 3.0, 4.0, H)
    assert p.conj().components == (1.0, -2.0, -3.0, -4.0)
    s = GQuat.scalar(7.0, H)
    assert s.conj().components == s.components
    assert p.conj().conj().components == p.components


@pytest.mark.parametrize("params", FAMILIES)
def test_conj_anti_homomorphism(rng, params):
    for _ in range(30):
        p, q = random_quat(rng, params), random_quat(rng, params)
        assert quat_close((p * q).conj(), q.conj() * p.conj(), 1e-12)


# --- norm and inverse -----------------------------------------------------------

def test_norm_examples():
    assert GQuat(1.0, 1.0, 1.0, 1.0, H).norm() == 4.0
    split = ParamTriple.split()
    assert GQuat(0.0, 0.0, 1.0, 0.0, split).norm() == -1.0


@pytest.mark.parametrize("params", FAMILIES)
def test_norm_multiplicative(rng, params):
    for _ in range(50):
        p, q = random_quat(rng, params), random_quat(rng, params)
        lhs = (p * q).norm()
        rhs = p.norm() * q.norm()
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_norm_of_scalar_multiple(rng):
    for params in FAMILIES:
        p = random_quat(rng, params)
        c = 2.75
        assert rel_close(p.scale(c).norm(), c * c * p.norm(), 1e-12)


def test_inverse_examples():
    assert GQuat.one(H).inverse().components == (1.0, 0.0, 0.0, 0.0)
    e1 = GQuat.basis(1, H)
    assert e1.inverse().components == (0.0, -1.0, 0.0, 0.0)


@pytest.mark.parametrize("params", FAMILIES)
def test_inverse_round_trip(rng, params):
    count = 0
    while count < 20:
        p = random_quat(rng, params)
        if abs(p.norm()) < 1e-3:
            continue
        count += 1
        assert quat_close(p * p.inverse(), GQuat.one(params), 1e-10)
        assert quat_close(p.inverse() * p, GQuat.one(params), 1e-10)


def test_inverse_of_product_and_scalar_multiple(rng):
    params = ParamTriple(2.0, 3.0, 5.0)
    for _ in range(20):
        p, q = random_quat(rng, params), random_quat(rng, params)
        if abs(p.norm()) < 1e-3 or abs(q.norm()) < 1e-3:
            continue
        assert quat_close((p * q).inverse(), q.inverse() * p.inverse(), 1e-10)
        assert quat_close(p.scale(4.0).inverse(), p.inverse().scale(0.25), 1e-12)


def test_inverse_raises_on_null():
    split = ParamTriple.split()
    null = GQuat(1.0, 0.0, 1.0, 0.0, split)  # 1 + e2 has norm 1 - 1 = 0
    assert null.norm() == 0.0
    with pytest.raises(ZeroNorm):
        null.inverse()
    quarter = ParamTriple.quarter()
    with pytest.raises(ZeroNorm):
        GQuat.basis(2, quarter).inverse()  # norm l1*l3 = 0


# --- scalar product --------------------------------------------------------------

def test_scalar_product_examples():
    p = GQuat(1.0, 2.0, 3.0, 4.0, H)
    assert GQuat.dot(p, p) == p.norm()
    assert GQuat.dot(GQuat.one(H), GQuat.basis(1, H)) == 0.0


@pytest.mark.parametrize("params", FAMILIES)
def test_scalar_product_matches_scalar_of_conjugated_product(rng, params):
    for _ in range(30):
        p, q = random_quat(rng, params), random_quat(rng, params)
        sp = GQuat.dot(p, q)
        assert rel_close(sp, (p * q.conj()).a0, 1e-10)
        assert rel_close(sp, (q.conj() * p).a0, 1e-10)


@pytest.mark.parametrize("params", FAMILIES)
def test_scalar_product_norm_scaling(rng, params):
    for _ in range(30):
        p, q, r = (random_quat(rng, params) for _ in range(3))
        expect = r.norm() * GQuat.dot(p, q)
        assert rel_close(GQuat.dot(r * p, r * q), expect, 1e-9)
        assert rel_close(GQuat.dot(p * r, q * r), expect, 1e-9)


@pytest.mark.parametrize("params", FAMILIES)
def test_scalar_product_adjoint_identities(rng, params):
    # The verified adjoint-style identities carry no norm prefactor.
    for _ in range(30):
        p, q, r = (random_quat(rng, params) for _ in range(3))
        lhs = GQuat.dot(p * q, r)
        assert rel_close(lhs, GQuat.dot(q, p.conj() * r), 1e-9)
        assert rel_close(lhs, GQuat.dot(p, r * q.conj()), 1e-9)


# --- degeneration to classical quaternions ----------------------------------------

def test_hamilton_degeneration(rng):
    for _ in range(100):
        comps_p = rng.standard_normal(4)
        comps_q = rng.standard_normal(4)
        p = GQuat.from_components(comps_p, H)
        q = GQuat.from_components(comps_q, H)
        hp = HQuat(*comps_p)
        hq = HQuat(*comps_q)
        assert quat_close(p * q, GQuat.from_components((hp * hq).components, H), 1e-12)
        assert p.conj().components == hp.conj().components
        assert abs(p.norm() - hp.norm()) <= 1e-12 * max(1.0, abs(hp.norm()))
        if abs(hp.norm()) > 1e-3:
            assert quat_close(p.inverse(),
                              GQuat.from_components(hp.inverse().components, H), 1e-12)


# --- vector embedding ----------------------------------------------------------------

def test_vector_embedding_round_trips():
    v = GVec3(1.5, -2.5, 3.5, H)
    q = v.as_quat()
    assert q.a0 == 0.0 and q.is_pure
    assert q.vector_part.components == v.components


# --- hypothesis property checks -------------------------------------------------------

_component = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False, allow_infinity=False)
_lam = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False)


def _assoc_scale(*quats: GQuat) -> float:
    params = quats[0].params
    w = max(1.0, abs(params.l12), abs(params.l13), abs(params.l23))
    scale = 1.0
    for q in quats:
        scale *= (1.0 + max(abs(c) for c in q.components)) * w
    return scale


@settings(max_examples=200, deadline=None)
@given(_lam, _lam, _lam, *(9 * (_component,)), _component, _component, _component)
def test_mul_associative_property(l1, l2, l3, a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3):
    params = ParamTriple(l1, l2, l3)
    p = GQuat(a0, a1, a2, a3, params)
    q = GQuat(b0, b1, b2, b3, params)
    r = GQuat(c0, c1, c2, c3, params)
    scale = _assoc_scale(p, q, r)
    assert quat_close((p * q) * r, p * (q * r), 1e-9, scale=scale)


@settings(max_examples=200, deadline=None)
@given(_lam, _lam, _lam, *(7 * (_component,)), _component)
def test_conj_anti_homomorphism_property(l1, l2, l3, a0, a1, a2, a3, b0, b1, b2, b3):
    params = ParamTriple(l1, l2, l3)
    p = GQuat(a0, a1, a2, a3, params)
    q = GQuat(b0, b1, b2, b3, params)
    scale = _assoc_scale(p, q)
    assert quat_close((p * q).conj(), q.conj() * p.conj(), 1e-12, scale=scale)


@settings(max_examples=200, deadline=None)
@given(_lam, _lam, _lam, *(7 * (_component,)), _component)
def test_norm_multiplicative_property(l1, l2, l3, a0, a1, a2, a3, b0, b1, b2, b3):
    params = ParamTriple(l1, l2, l3)
    p = GQuat(a0, a1, a2, a3, params)
    q = GQuat(b0, b1, b2, b3, params)
    scale = _assoc_scale(p, q) ** 2
    assert abs((p * q).norm() - p.norm() * q.norm()) <= 1e-9 * scale

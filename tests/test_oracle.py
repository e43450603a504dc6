"""The independent reference paths themselves: table product, repetition, conjugation."""

import numpy as np
import pytest

import gq3.oracle
from gq3 import GQuat, GVec3, ParamTriple, ZeroNorm, adjoint_group, core, lie, matrices
from gq3.oracle import (
    conjugation_columns,
    killing_by_trace,
    mul_by_table,
    multiplication_table,
    pow_by_repetition,
)
from helpers import FAMILIES, as_array, quat_close, random_quat, random_unit_norm

H = ParamTriple.hamilton()


def test_table_is_closed():
    # every entry reduces to a single weighted basis word
    table = multiplication_table(ParamTriple(2.0, 3.0, 5.0))
    assert set(table) == {(i, j) for i in range(4) for j in range(4)}
    for (i, j), (coeff, k) in table.items():
        assert k in (0, 1, 2, 3)
        assert isinstance(coeff, float)


@pytest.mark.parametrize("params", FAMILIES)
def test_table_basis_products(params):
    l3 = params.lambda3
    e2, e3 = GQuat.basis(2, params), GQuat.basis(3, params)
    assert mul_by_table(e2, e3).components == (0.0, l3, 0.0, 0.0)
    q = GQuat(0.5, -1.5, 2.5, -3.5, params)
    assert mul_by_table(GQuat.one(params), q).components == q.components


@pytest.mark.parametrize("params", FAMILIES)
def test_table_matches_closed_form_product(rng, params):
    for _ in range(40):
        p, q = random_quat(rng, params), random_quat(rng, params)
        assert quat_close(mul_by_table(p, q), p * q, 1e-12)


def test_repetition_trivial_exponents(rng):
    p = random_quat(rng, H)
    assert pow_by_repetition(p, 0).components == (1.0, 0.0, 0.0, 0.0)
    assert pow_by_repetition(p, 1).components == p.components


def test_repetition_reproduces_worked_example():
    p = GQuat(-0.5, 0.5, 0.5, 0.5, H)
    p21 = pow_by_repetition(p, 21)
    assert p21.components == pytest.approx((1.0, 0.0, 0.0, 0.0), abs=1e-10)


def test_repetition_negative_exponents(rng):
    p = random_quat(rng, ParamTriple(2.0, 3.0, 5.0))
    inv3 = pow_by_repetition(p, -3)
    direct = pow_by_repetition(p.inverse(), 3)
    assert quat_close(inv3, direct, 1e-12)
    assert quat_close(pow_by_repetition(p, 3) * inv3, GQuat.one(p.params), 1e-9)


def test_repetition_rejects_negative_power_of_null():
    split = ParamTriple.split()
    null = GQuat(1.0, 0.0, 1.0, 0.0, split)
    with pytest.raises(ZeroNorm):
        pow_by_repetition(null, -1)
    assert pow_by_repetition(null, 2) is not None  # non-negative powers are fine
    with pytest.raises(TypeError):
        pow_by_repetition(null, 1.5)


def test_conjugation_of_identity():
    for params in FAMILIES:
        assert np.array_equal(as_array(conjugation_columns(GQuat.one(params))), np.eye(3))


def test_conjugation_by_e1_at_hamilton():
    got = as_array(conjugation_columns(GQuat.basis(1, H)))
    assert np.allclose(got, np.diag([1.0, -1.0, -1.0]), rtol=0, atol=1e-12)


@pytest.mark.parametrize("params", FAMILIES)
def test_conjugation_matches_adjoint(rng, params):
    for _ in range(15):
        p = random_unit_norm(rng, params)
        assert np.allclose(as_array(conjugation_columns(p)), as_array(adjoint_group(p)),
                           rtol=0, atol=1e-12)


def test_conjugation_rejects_null():
    split = ParamTriple.split()
    with pytest.raises(ZeroNorm):
        conjugation_columns(GQuat(1.0, 0.0, 1.0, 0.0, split))


# The kernels and methods the oracle routes are compared against.
CHECKED = [(core, "_product"), (core, "_wedge"), (core, "_dot"), (core, "_bilinear"),
           (matrices, "_mult_rows"), (matrices, "_skew_rows"),
           (lie, "_adjoint_polynomials"), (lie, "ad_matrix"),
           (GQuat, "__mul__"), (GQuat, "inverse"), (GQuat, "norm"), (GQuat, "dot"),
           (GQuat, "conj")]


def _checked_code_called(*args, **kwargs):
    raise AssertionError("an oracle route called the code it checks")


def test_routes_use_none_of_the_code_they_check(monkeypatch):
    params = ParamTriple(1.0, 0.7, -1.3)
    p, null = GQuat(0.5, -1.5, 2.5, -3.5, params), GQuat(1.0, 0.0, 1.0, 0.0, ParamTriple.split())
    x, y = GVec3(1.0, -2.0, 0.5, params), GVec3(-0.25, 3.0, 1.5, params)
    for owner, name in CHECKED:
        assert name not in vars(gq3.oracle)
        monkeypatch.setattr(owner, name, _checked_code_called)
    with pytest.raises(AssertionError):
        p * p  # the patches are live
    multiplication_table(params)
    mul_by_table(p, p)
    pow_by_repetition(p, 3)
    pow_by_repetition(p, -2)
    conjugation_columns(p)
    killing_by_trace(x, y)
    # The null test is the oracle's own as well.
    with pytest.raises(ZeroNorm):
        pow_by_repetition(null, -1)
    with pytest.raises(ZeroNorm):
        conjugation_columns(null)

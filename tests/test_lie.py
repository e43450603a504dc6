"""Bracket, adjoint action, rotation decomposition, Killing form."""

import math

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from gq3 import (
    GQuat,
    GVec3,
    NotPositiveFamily,
    NotUnitVector,
    ParamTriple,
    ZeroNorm,
    ad_matrix,
    adjoint_closed_form,
    adjoint_group,
    adjoint_rodrigues,
    bilinear_f,
    bracket,
    family,
    is_compact,
    killing_form,
    killing_matrix,
    metric_eps,
    skew_of_axis,
    wedge,
)
from gq3.oracle import conjugation_columns, killing_by_trace
from helpers import (
    FAMILIES,
    POSITIVE_FAMILIES,
    as_array,
    random_quat,
    random_unit_norm,
    random_unit_vector,
    random_vec,
    rel_close,
    vec_close,
)

H = family("hamilton")


# --- bracket -------------------------------------------------------------------

@pytest.mark.parametrize("params", FAMILIES)
def test_bracket_basis_relations(params):
    l1, l2, l3 = params.lambda1, params.lambda2, params.lambda3
    e1, e2, e3 = (GVec3.basis(i, params) for i in (1, 2, 3))
    assert bracket(e1, e2).components == (0.0, 0.0, 2.0 * l1)
    assert bracket(e2, e3).components == (2.0 * l3, 0.0, 0.0)
    assert bracket(e3, e1).components == (0.0, 2.0 * l2, 0.0)
    assert bracket(e1, e1).components == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("params", FAMILIES)
def test_bracket_is_commutator(rng, params):
    for _ in range(30):
        x, y = random_vec(rng, params), random_vec(rng, params)
        comm = x.as_quat() * y.as_quat() - y.as_quat() * x.as_quat()
        assert comm.a0 == 0.0  # scalar parts cancel exactly by symmetry
        assert vec_close(bracket(x, y), comm.vector_part, 1e-10)


@pytest.mark.parametrize("params", FAMILIES)
def test_jacobi_identity(rng, params):
    zero = GVec3(0.0, 0.0, 0.0, params)
    for _ in range(40):
        x, y, z = (random_vec(rng, params) for _ in range(3))
        total = (bracket(x, bracket(y, z)) + bracket(y, bracket(z, x))
                 + bracket(z, bracket(x, y)))
        scale = max(1.0, *(abs(c) for v in (x, y, z) for c in v.components)) ** 3
        assert vec_close(total, zero, 1e-9, scale=scale)


@pytest.mark.parametrize("params", FAMILIES)
def test_bracket_and_ad_are_twice_wedge_and_skew_bitwise(rng, params):
    def bits(values):
        return np.asarray(values, dtype=float).tobytes()  # tells -0.0 from 0.0

    for _ in range(50):
        x, y = random_vec(rng, params), random_vec(rng, params)
        assert bits(bracket(x, y).components) == bits([2.0 * c for c in wedge(x, y).components])
        assert bits(ad_matrix(x)) == bits(2.0 * as_array(skew_of_axis(x)))


# --- ad matrices ------------------------------------------------------------------

def test_ad_matrix_of_e1():
    params = ParamTriple(2.0, 3.0, 5.0)
    l1, l2, _ = params.lambda1, params.lambda2, params.lambda3
    got = as_array(ad_matrix(GVec3.basis(1, params)))
    expected = np.array([
        [0.0, 0.0, 0.0],
        [0.0, 0.0, -2.0 * l2],
        [0.0, 2.0 * l1, 0.0],
    ])
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("params", FAMILIES)
def test_ad_matrix_realizes_bracket(rng, params):
    for _ in range(30):
        x, y = random_vec(rng, params), random_vec(rng, params)
        got = as_array(ad_matrix(x)) @ np.array(y.components)
        assert np.allclose(got, bracket(x, y).components, rtol=0,
                           atol=1e-10 * max(1.0, np.abs(got).max()))
        kill = as_array(ad_matrix(x)) @ np.array(x.components)
        assert np.allclose(kill, 0.0, rtol=0, atol=1e-10 * max(1.0, np.abs(x.components).max()) ** 2)


# --- metric and skew ------------------------------------------------------------------

def test_metric_is_exact_diagonal():
    params = ParamTriple(1.0, 0.7, -1.3)
    eps = as_array(metric_eps(params))
    assert eps[0, 0] == params.l12 and eps[1, 1] == params.l13 and eps[2, 2] == params.l23
    off = eps - np.diag(np.diag(eps))
    assert np.array_equal(off, np.zeros((3, 3)))


def test_skew_of_zero_vector():
    assert np.array_equal(as_array(skew_of_axis(GVec3(0.0, 0.0, 0.0, H))), np.zeros((3, 3)))


@pytest.mark.parametrize("params", FAMILIES)
def test_skew_metric_antisymmetry(rng, params):
    eps = as_array(metric_eps(params))
    for _ in range(20):
        s = as_array(skew_of_axis(random_vec(rng, params)))
        assert np.allclose(eps @ s + s.T @ eps, 0.0, rtol=0, atol=1e-12 * max(1.0, np.abs(s).max()))


@pytest.mark.parametrize("params", FAMILIES)
def test_skew_commutator_is_skew_of_wedge(rng, params):
    for _ in range(20):
        s, t = random_vec(rng, params), random_vec(rng, params)
        sm, tm = as_array(skew_of_axis(s)), as_array(skew_of_axis(t))
        lhs = sm @ tm - tm @ sm
        rhs = as_array(skew_of_axis(wedge(s, t)))
        assert np.allclose(lhs, rhs, rtol=0, atol=1e-10 * max(1.0, np.abs(rhs).max()))


# --- adjoint action ----------------------------------------------------------------------

def test_adjoint_of_identity():
    for params in FAMILIES:
        assert np.allclose(as_array(adjoint_group(GQuat.scalar(1.0, params))), np.eye(3), atol=0)


def test_adjoint_of_half_angle_is_plane_rotation():
    theta = 0.7
    p = GQuat(math.cos(theta / 2), 0.0, 0.0, math.sin(theta / 2), H)
    got = as_array(adjoint_group(p))
    expected = np.array([
        [math.cos(theta), -math.sin(theta), 0.0],
        [math.sin(theta), math.cos(theta), 0.0],
        [0.0, 0.0, 1.0],
    ])
    assert np.allclose(got, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("params", FAMILIES)
def test_adjoint_preserves_metric_on_unit_elements(rng, params):
    eps = as_array(metric_eps(params))
    for _ in range(20):
        p = random_unit_norm(rng, params)
        a = as_array(adjoint_group(p))
        assert np.allclose(a.T @ eps @ a, eps, rtol=0, atol=1e-9 * max(1.0, np.abs(eps).max()))
        assert np.linalg.det(a) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("params", FAMILIES)
def test_adjoint_is_group_homomorphism(rng, params):
    for _ in range(15):
        p = random_unit_norm(rng, params)
        q = random_unit_norm(rng, params)
        lhs = as_array(adjoint_group(p * q))
        rhs = as_array(adjoint_group(p)) @ as_array(adjoint_group(q))
        assert np.allclose(lhs, rhs, rtol=0, atol=1e-9 * max(1.0, np.abs(rhs).max()))


@pytest.mark.parametrize("params", FAMILIES)
def test_adjoint_matches_conjugation_oracle(rng, params):
    for _ in range(15):
        p = random_unit_norm(rng, params)
        assert np.allclose(as_array(adjoint_group(p)), as_array(conjugation_columns(p)),
                           rtol=0, atol=1e-12)


def test_adjoint_rejects_null_elements():
    split = family("split")
    with pytest.raises(ZeroNorm):
        adjoint_group(GQuat(1.0, 0.0, 1.0, 0.0, split))


# --- polynomial closed form ----------------------------------------------------------------

@pytest.mark.parametrize("params", FAMILIES)
def test_closed_form_scales_conjugation_by_norm(rng, params):
    for _ in range(20):
        p = random_quat(rng, params)
        n = p.norm()
        if abs(n) < 1e-2:
            continue
        a = as_array(adjoint_closed_form(p))
        c = as_array(conjugation_columns(p))
        assert np.allclose(a, n * c, rtol=0, atol=1e-10 * max(1.0, abs(n) * np.abs(c).max()))


@pytest.mark.parametrize("params", FAMILIES)
def test_closed_form_metric_and_determinant_laws(rng, params):
    eps = as_array(metric_eps(params))
    for _ in range(20):
        p = random_quat(rng, params)
        n = p.norm()
        a = as_array(adjoint_closed_form(p))
        scale = max(1.0, n * n * np.abs(eps).max())
        assert np.allclose(a.T @ eps @ a, n * n * eps, rtol=0, atol=1e-9 * scale)
        assert rel_close(float(np.linalg.det(a)), n ** 3, 1e-9)


def test_closed_form_equals_adjoint_on_units(rng):
    for params in FAMILIES:
        p = random_unit_norm(rng, params)
        assert np.allclose(as_array(adjoint_closed_form(p)), as_array(adjoint_group(p)),
                           rtol=0, atol=1e-10)


# --- rotation-style decomposition ------------------------------------------------------------

def test_rodrigues_at_zero_angle(rng):
    axis = random_unit_vector(rng, H)
    assert np.allclose(as_array(adjoint_rodrigues(axis, 0.0)), np.eye(3), atol=0)


def test_rodrigues_standard_quarter_turn():
    ez = GVec3(0.0, 0.0, 1.0, H)
    got = as_array(adjoint_rodrigues(ez, math.pi / 2))
    expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.allclose(got, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("params", POSITIVE_FAMILIES)
def test_rodrigues_matches_conjugation(rng, params):
    for _ in range(20):
        axis = random_unit_vector(rng, params)
        theta = rng.uniform(-math.pi, math.pi)
        half = GQuat(math.cos(theta / 2),
                     *(math.sin(theta / 2) * c for c in axis.components), params)
        lhs = as_array(adjoint_rodrigues(axis, theta))
        rhs = as_array(adjoint_group(half))
        assert np.allclose(lhs, rhs, rtol=0, atol=1e-9 * max(1.0, np.abs(rhs).max()))


def test_rodrigues_derivative_at_zero_is_skew(rng):
    # group-to-algebra consistency by central finite differences
    h = 1e-5
    for params in POSITIVE_FAMILIES:
        axis = random_unit_vector(rng, params)
        diff = (as_array(adjoint_rodrigues(axis, h))
                - as_array(adjoint_rodrigues(axis, -h))) / (2 * h)
        assert np.allclose(diff, as_array(skew_of_axis(axis)), rtol=0, atol=1e-7)


def test_rodrigues_rejects_bad_input(rng):
    split = family("split")
    ex = GVec3(1.0, 0.0, 0.0, split)  # f(ex, ex) = 1, but the family is indefinite
    with pytest.raises(NotPositiveFamily):
        adjoint_rodrigues(ex, 1.0)
    with pytest.raises(NotUnitVector):
        adjoint_rodrigues(GVec3(2.0, 0.0, 0.0, H), 1.0)


# --- third-party oracle: scipy rotations at (1, 1, 1) ------------------------------------
# The worst entry difference seen over 1,000 draws was 5.6e-16 for the adjoint
# and 1.4e-15 for the Rodrigues form.

def test_adjoint_matches_scipy_rotation_matrix(rng):
    for _ in range(200):
        p = random_unit_norm(rng, H)
        # scipy stores quaternions scalar-last
        expect = Rotation.from_quat([p.a1, p.a2, p.a3, p.a0]).as_matrix()
        assert np.abs(as_array(adjoint_group(p)) - expect).max() <= 1e-14


def test_rodrigues_matches_scipy_rotation_vector(rng):
    for _ in range(200):
        axis, theta = random_unit_vector(rng, H), rng.uniform(-4.0, 4.0)
        expect = Rotation.from_rotvec(theta * np.array(axis.components)).as_matrix()
        assert np.abs(as_array(adjoint_rodrigues(axis, theta)) - expect).max() <= 1e-14


# --- Killing form --------------------------------------------------------------------------

def test_killing_on_basis():
    params = ParamTriple(2.0, 3.0, 5.0)
    e1, e2 = GVec3.basis(1, params), GVec3.basis(2, params)
    assert killing_form(e1, e1) == -8.0 * params.l12
    assert killing_form(e1, e2) == 0.0


@pytest.mark.parametrize("params", FAMILIES)
def test_killing_is_minus_eight_times_form(rng, params):
    for _ in range(30):
        x, y = random_vec(rng, params), random_vec(rng, params)
        expect = -8.0 * bilinear_f(x, y)
        assert rel_close(killing_form(x, y), expect, 1e-9)
        assert rel_close(killing_form(y, x), killing_form(x, y), 1e-12)


@pytest.mark.parametrize("params", FAMILIES)
def test_killing_matches_trace_definition(rng, params):
    basis = [GVec3.basis(i, params) for i in (1, 2, 3)]
    for x in basis:
        for y in basis:
            got, want = killing_form(x, y), killing_by_trace(x, y)
            assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)
    weights = (params.l12, params.l13, params.l23)
    for _ in range(30):
        x, y = random_vec(rng, params), random_vec(rng, params)
        # every term of the trace is bounded by 8*|w_i*x_i*y_i|
        scale = 8.0 * sum(abs(w * a * b) for w, a, b in zip(weights, x.components, y.components))
        assert abs(killing_form(x, y) - killing_by_trace(x, y)) <= 1e-14 * max(1.0, scale)


@pytest.mark.parametrize("params", FAMILIES)
def test_killing_matrix_matches_trace_gram(params):
    basis = [GVec3.basis(i, params) for i in (1, 2, 3)]
    gram = np.array([[killing_by_trace(a, b) for b in basis] for a in basis])
    got = as_array(killing_matrix(params))
    assert np.array_equal(got, gram)
    assert np.array_equal(np.signbit(got), np.signbit(gram))  # zeros stay +0.0


@pytest.mark.parametrize("params", FAMILIES)
def test_killing_ad_invariance(rng, params):
    for _ in range(20):
        x, y, z = (random_vec(rng, params) for _ in range(3))
        total = killing_form(bracket(z, x), y) + killing_form(x, bracket(z, y))
        scale = max(1.0, *(abs(c) for v in (x, y, z) for c in v.components)) ** 3
        assert abs(total) <= 1e-9 * scale


def test_killing_matrix_values():
    assert np.array_equal(as_array(killing_matrix(H)), -8.0 * np.eye(3))
    split = family("split")
    assert np.array_equal(as_array(killing_matrix(split)), np.diag([-8.0, 8.0, 8.0]))
    quarter = family("quarter")
    assert np.array_equal(as_array(killing_matrix(quarter)), np.zeros((3, 3)))


@pytest.mark.parametrize("params", FAMILIES)
def test_killing_matrix_is_exactly_scaled_metric(params):
    assert np.array_equal(as_array(killing_matrix(params)), -8.0 * as_array(metric_eps(params)))


# --- compactness ------------------------------------------------------------------------------

def test_compactness_criterion(rng):
    assert is_compact(H)
    assert is_compact(ParamTriple(1.0, 2.0, 3.0))
    assert not is_compact(family("split"))
    assert not is_compact(family("quarter"))
    # one zero parameter is enough, wherever it sits
    assert not any(is_compact(ParamTriple(*lam)) for lam in ((0, 1, 1), (1, 0, 1), (1, 1, 0)))
    # compact families have negative Killing self-pairing on nonzero vectors
    for params in POSITIVE_FAMILIES:
        for _ in range(10):
            x = random_vec(rng, params)
            if max(abs(c) for c in x.components) < 1e-6:
                continue
            assert killing_form(x, x) < 0.0
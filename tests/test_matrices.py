"""Left/right matrix representations, base matrices, determinant, spectrum."""

import numpy as np
import pytest

from gq3 import (
    DegenerateAxis,
    GQuat,
    Mat3,
    Mat4,
    ParamTriple,
    base_matrices,
    char_poly,
    det4,
    eigenvalues,
    eigenvectors,
    left_matrix,
    right_matrix,
)
from helpers import FAMILIES, as_array, random_quat, rel_close

H = ParamTriple.hamilton()


def vec(q: GQuat) -> np.ndarray:
    return np.array(q.components)


# --- fundamental matrices ------------------------------------------------------

def test_left_matrix_of_unit_is_identity():
    for params in FAMILIES:
        assert np.array_equal(as_array(left_matrix(GQuat.one(params))), np.eye(4))


def test_left_matrix_of_e1_pattern():
    params = ParamTriple(2.0, 3.0, 5.0)
    l1, l2, _ = params.as_tuple()
    expected = np.array([
        [0.0, -l1 * l2, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -l2],
        [0.0, 0.0, l1, 0.0],
    ])
    assert np.array_equal(as_array(left_matrix(GQuat.basis(1, params))), expected)


@pytest.mark.parametrize("params", FAMILIES)
def test_left_matrix_realizes_left_multiplication(rng, params):
    for _ in range(30):
        p, q = random_quat(rng, params), random_quat(rng, params)
        got = as_array(left_matrix(p)) @ vec(q)
        assert np.allclose(got, vec(p * q), rtol=0, atol=1e-12 * max(1, np.abs(got).max()))


def test_right_matrix_of_unit_is_identity():
    for params in FAMILIES:
        assert np.array_equal(as_array(right_matrix(GQuat.one(params))), np.eye(4))


def test_right_matrix_of_e1_matches_multiplication_columns():
    # Columns of the right-multiplication matrix are q*e1 over the basis q.
    e1 = GQuat.basis(1, H)
    cols = [vec(GQuat.basis(i, H) * e1) for i in range(4)]
    expected = np.array(cols).T
    assert np.array_equal(as_array(right_matrix(e1)), expected)


@pytest.mark.parametrize("params", FAMILIES)
def test_right_matrix_realizes_right_multiplication(rng, params):
    for _ in range(30):
        p, q = random_quat(rng, params), random_quat(rng, params)
        got = as_array(right_matrix(p)) @ vec(q)
        assert np.allclose(got, vec(q * p), rtol=0, atol=1e-12 * max(1, np.abs(got).max()))


@pytest.mark.parametrize("params", FAMILIES)
def test_representation_homomorphisms(rng, params):
    for _ in range(30):
        p, q = random_quat(rng, params), random_quat(rng, params)
        mp, mq = as_array(left_matrix(p)), as_array(left_matrix(q))
        scale = max(1.0, np.abs(mp).max() * np.abs(mq).max())
        assert np.allclose(as_array(left_matrix(p + q)), mp + mq, rtol=0, atol=1e-12 * scale)
        assert np.allclose(as_array(left_matrix(p * q)), mp @ mq, rtol=0, atol=1e-9 * scale)
        npm, nqm = as_array(right_matrix(p)), as_array(right_matrix(q))
        assert np.allclose(as_array(right_matrix(p * q)), nqm @ npm, rtol=0, atol=1e-9 * scale)


@pytest.mark.parametrize("params", FAMILIES)
def test_left_and_right_matrices_commute(rng, params):
    for _ in range(20):
        p, r = random_quat(rng, params), random_quat(rng, params)
        mp = as_array(left_matrix(p))
        nr = as_array(right_matrix(r))
        scale = max(1.0, np.abs(mp).max() * np.abs(nr).max())
        assert np.allclose(mp @ nr, nr @ mp, rtol=0, atol=1e-12 * scale)


def test_representation_is_injective(rng):
    for params in FAMILIES:
        zero = GQuat(0.0, 0.0, 0.0, 0.0, params)
        assert np.array_equal(as_array(left_matrix(zero)), np.zeros((4, 4)))
        p = random_quat(rng, params)
        # The first column is the component vector itself, so M(p) = 0 forces p = 0.
        assert np.array_equal(as_array(left_matrix(p))[:, 0], vec(p))


def test_trace_is_four_times_scalar_part(rng):
    for params in FAMILIES:
        p = random_quat(rng, params)
        assert np.trace(as_array(left_matrix(p))) == pytest.approx(4.0 * p.a0, abs=1e-12)


# --- base matrices ---------------------------------------------------------------

@pytest.mark.parametrize("params", [H, ParamTriple(2.0, 3.0, 5.0), ParamTriple(1.0, -1.0, 0.5)])
def test_base_matrix_product_list(params):
    l1, l2, l3 = params.as_tuple()
    e0, e1, e2, e3 = (as_array(m) for m in base_matrices(params))
    i4 = np.eye(4)

    def same(a, b):
        assert np.allclose(a, b, rtol=0, atol=1e-12 * max(1.0, np.abs(b).max()))

    same(e0, i4)
    same(e1 @ e1, -l1 * l2 * i4)
    same(e2 @ e2, -l1 * l3 * i4)
    same(e3 @ e3, -l2 * l3 * i4)
    same(e1 @ e2, l1 * e3)
    same(e2 @ e1, -l1 * e3)
    same(e2 @ e3, l3 * e1)
    same(e3 @ e2, -l3 * e1)
    same(e1 @ e3, -l2 * e2)
    same(e3 @ e1, l2 * e2)
    same(e1 @ e2 @ e3, -l1 * l2 * l3 * i4)
    same(e2 @ e3 @ e1, -l1 * l2 * l3 * i4)
    same(e3 @ e1 @ e2, -l1 * l2 * l3 * i4)
    same(e1 @ e3 @ e2, l1 * l2 * l3 * i4)
    same(e2 @ e1 @ e3, l1 * l2 * l3 * i4)
    same(e3 @ e2 @ e1, l1 * l2 * l3 * i4)


# --- determinant -------------------------------------------------------------------

def test_det_of_identity():
    assert det4(np.eye(4)) == 1.0


def test_det_of_e1_matrix_at_hamilton():
    m = left_matrix(GQuat.basis(1, H))
    assert det4(m) == pytest.approx(1.0, abs=1e-12)
    # cross-check the cofactor expansion against numpy's LU-based determinant
    assert det4(m) == pytest.approx(float(np.linalg.det(as_array(m))), abs=1e-12)


@pytest.mark.parametrize("params", FAMILIES)
def test_det_is_squared_norm(rng, params):
    for _ in range(40):
        p = random_quat(rng, params)
        expect = p.norm() ** 2
        assert rel_close(det4(left_matrix(p)), expect, 1e-9)


def test_det4_rejects_wrong_shape():
    with pytest.raises(ValueError):
        det4(np.eye(3))


# --- characteristic polynomial -------------------------------------------------------

def test_char_poly_of_unit():
    cp = char_poly(GQuat.one(H))
    # (t - 1)^4 = 1 - 4t + 6t^2 - 4t^3 + t^4
    assert cp.coefficients == (1.0, -4.0, 6.0, -4.0, 1.0)
    assert cp.quadratic == (1.0, -2.0, 1.0)


def test_char_poly_is_square_of_quadratic(rng):
    for params in FAMILIES:
        p = random_quat(rng, params)
        cp = char_poly(p)
        c0, c1, c2 = cp.quadratic
        assert c2 == 1.0
        expanded = np.polymul([c2, c1, c0], [c2, c1, c0])[::-1]
        assert np.allclose(expanded, cp.coefficients, rtol=0,
                           atol=1e-12 * max(1.0, np.abs(expanded).max()))
        assert cp.coefficients[-1] == 1.0


@pytest.mark.parametrize("params", FAMILIES)
def test_char_poly_vanishes_on_eigenvalues(rng, params):
    for _ in range(30):
        p = random_quat(rng, params)
        cp = char_poly(p)
        for pair in eigenvalues(p):
            assert abs(cp(pair.value)) <= 1e-8


@pytest.mark.parametrize("params", FAMILIES)
def test_char_poly_matches_determinant_sampling(rng, params):
    # Independent route: sample det(M - t*I) at five points and interpolate.
    for _ in range(10):
        p = random_quat(rng, params)
        m = as_array(left_matrix(p))
        ts = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        samples = [det4(m - t * np.eye(4)) for t in ts]
        vander = np.vander(ts, 5, increasing=True)
        coeffs = np.linalg.solve(vander, samples)
        got = char_poly(p).coefficients
        assert np.allclose(coeffs, got, rtol=0, atol=1e-8 * max(1.0, np.abs(coeffs).max()))


# --- eigenvalues ------------------------------------------------------------------------

def test_eigenvalues_of_e1_at_hamilton():
    lo, hi = eigenvalues(GQuat.basis(1, H))
    values = sorted([lo.value, hi.value], key=lambda z: z.imag)
    assert values[0] == pytest.approx(-1j)
    assert values[1] == pytest.approx(1j)
    assert lo.multiplicity == hi.multiplicity == 2


def test_eigenvalues_real_for_negative_discriminant():
    split = ParamTriple.split()
    p = GQuat(0.0, 0.0, 0.0, 1.0, split)  # discriminant l23 = -1
    t1, t2 = eigenvalues(p)
    assert t1.value.imag == 0.0 and t2.value.imag == 0.0
    assert sorted([t1.value.real, t2.value.real]) == [-1.0, 1.0]
    m = as_array(left_matrix(p))
    for t in (t1.value.real, t2.value.real):
        # closed-form real eigenvalues really are eigenvalues of the matrix
        assert abs(np.linalg.det(m - t * np.eye(4))) <= 1e-10


@pytest.mark.parametrize("params", FAMILIES)
def test_eigenvalue_product_is_norm(rng, params):
    for _ in range(30):
        p = random_quat(rng, params)
        t1, t2 = eigenvalues(p)
        prod = t1.value * t2.value
        assert abs(prod.imag) <= 1e-9 * max(1.0, abs(prod))
        assert rel_close(prod.real, p.norm(), 1e-9)
        # all four (each value twice) multiply to the squared norm
        assert rel_close((prod * prod).real, p.norm() ** 2, 1e-9)


# --- eigenvectors ------------------------------------------------------------------------

@pytest.mark.parametrize("params", FAMILIES)
def test_eigenvector_residuals(rng, params):
    checked = 0
    while checked < 25:
        p = random_quat(rng, params)
        try:
            pairs = eigenvectors(p)
        except DegenerateAxis:
            continue
        checked += 1
        m = as_array(left_matrix(p)).astype(complex)
        for pair in pairs:
            v = np.array(pair.vector)
            residual = np.linalg.norm(m @ v - pair.value * v)
            assert residual <= 1e-8 * np.linalg.norm(v)


def test_eigenvectors_of_hamilton_example():
    p = GQuat(0.0, 1.0, 1.0, 1.0, H)
    m = as_array(left_matrix(p)).astype(complex)
    for pair in eigenvectors(p):
        v = np.array(pair.vector)
        assert np.linalg.norm(m @ v - pair.value * v) <= 1e-10 * np.linalg.norm(v)


def test_eigenvector_pairs_are_independent(rng):
    for params in FAMILIES:
        p = random_quat(rng, params)
        try:
            pairs = eigenvectors(p)
        except DegenerateAxis:
            continue
        first = np.array([pairs[0].vector, pairs[1].vector])
        assert np.linalg.matrix_rank(first) == 2


def test_degenerate_axis_raises():
    p = GQuat(1.0, 2.0, 0.0, 0.0, H)  # a2 = a3 = 0
    with pytest.raises(DegenerateAxis):
        eigenvectors(p)
    # cancellation between terms, not just zero components
    mixed = ParamTriple(1.0, -1.0, 1.0)
    q = GQuat(0.5, 1.0, 1.0, 1.0, mixed)  # l1*a2^2 + l2*a3^2 = 1 - 1 = 0
    with pytest.raises(DegenerateAxis):
        eigenvectors(q)


# --- matrix container behavior --------------------------------------------------------------

def test_mat4_validates_shape_and_finiteness():
    with pytest.raises(ValueError):
        Mat4(np.eye(3))
    bad = np.eye(4)
    bad[0, 0] = np.inf
    with pytest.raises(ValueError):
        Mat4(bad)


@pytest.mark.parametrize("cls,size", [(Mat3, 3), (Mat4, 4)])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_matrix_rejects_non_finite_entry_at_every_position(cls, size, bad):
    for i in range(size):
        for j in range(size):
            data = np.eye(size)
            data[i, j] = bad
            with pytest.raises(ValueError):
                cls(data, H)
            with pytest.raises(ValueError):
                cls(data.tolist(), H)


@pytest.mark.parametrize("cls,size", [(Mat3, 3), (Mat4, 4)])
def test_matrix_is_read_only_and_keeps_params(cls, size):
    data = np.arange(size * size, dtype=float).reshape(size, size)
    m = cls(data, H)
    assert isinstance(m, cls)
    assert m.params == H
    assert not m.flags.writeable
    with pytest.raises(ValueError):
        m[0, 0] = 1.0
    assert m.rows() == data.tolist()
    data[0, 0] = 99.0  # the input is copied, not frozen or shared
    assert m[0, 0] == 0.0


def test_mat4_keeps_params_through_arithmetic():
    m = left_matrix(GQuat.basis(1, H))
    assert m.params == H
    prod = m @ m
    assert isinstance(prod, Mat4)
    assert prod.params == H
    assert m.rows()[1][0] == 1.0

"""Left/right matrix representations, base matrices, determinant, spectrum."""

import copy
import itertools
import json
import math
import pickle

import numpy as np
import pytest

from gq3 import (
    DegenerateAxis,
    GQuat,
    GVec3,
    Mat3,
    Mat4,
    NonFinite,
    ParamTriple,
    base_matrices,
    char_poly,
    det4,
    eigenvalues,
    eigenvectors,
    family,
    left_matrix,
    right_matrix,
)
from gq3.lie import (ad_matrix, adjoint_closed_form, adjoint_group, adjoint_rodrigues,
                     is_compact, skew_of_axis)
from gq3.matrices import _TaggedMatrix, _det3, _float_rows
from gq3.polar import euler_exp_matrix, matrix_pow, matrix_roots, polar_matrix
from helpers import FAMILIES, as_array, poly_at, random_quat, random_vec, rel_close

H = family("hamilton")


def vec(q: GQuat) -> np.ndarray:
    return np.array(q.components)


# --- fundamental matrices ------------------------------------------------------

def test_left_matrix_of_unit_is_identity():
    for params in FAMILIES:
        assert np.array_equal(as_array(left_matrix(GQuat.scalar(1.0, params))), np.eye(4))


def test_left_matrix_of_e1_pattern():
    params = ParamTriple(2.0, 3.0, 5.0)
    l1, l2, _ = params.lambda1, params.lambda2, params.lambda3
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
        assert np.array_equal(as_array(right_matrix(GQuat.scalar(1.0, params))), np.eye(4))


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
    l1, l2, l3 = params.lambda1, params.lambda2, params.lambda3
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


def _cofactor_loop(rows) -> float:
    # det4's expansion along the first row as a loop over alternating signs, from 0.0.
    total = 0.0
    for j in range(4):
        total += (-1.0) ** j * rows[0][j] * _det3(rows, *(c for c in range(4) if c != j))
    return total


def test_det4_is_the_cofactor_sum_bit_for_bit(rng):
    zero = [[0.0] * 4 for _ in range(4)]
    assert math.copysign(1.0, det4(zero)) == 1.0
    rest = rng.standard_normal((3, 4)).tolist()
    for signs in itertools.product((0.0, -0.0), repeat=4):  # four terms, zeros of any sign
        assert math.copysign(1.0, det4([list(signs), *rest])) == 1.0, signs
    for spread in (0, 3, 160) * 700:  # exponents within +-spread; 160 overflows often
        m = rng.standard_normal((4, 4)) * 10.0 ** rng.integers(-spread, spread + 1, (4, 4))
        m[rng.random((4, 4)) < 0.2] *= 0.0  # zeros of both signs
        rows = _float_rows(m, 4, "m")
        expect = _cofactor_loop(rows)
        if math.isfinite(expect):
            assert det4(m).hex() == expect.hex()
        else:
            with pytest.raises(NonFinite):
                det4(m)


def test_det4_rejects_wrong_shape():
    with pytest.raises(ValueError):
        det4(np.eye(3))


# --- characteristic polynomial -------------------------------------------------------

def test_char_poly_of_unit():
    coefficients, quadratic = char_poly(GQuat.scalar(1.0, H))
    # (t - 1)^4 = 1 - 4t + 6t^2 - 4t^3 + t^4
    assert coefficients == (1.0, -4.0, 6.0, -4.0, 1.0)
    assert quadratic == (1.0, -2.0, 1.0)


# One element each of hamilton, split and 2,3,5 whose norm and coefficients are exact.
@pytest.mark.parametrize("q, expected", [
    (GQuat(0.5, 0.5, 0.5, 0.5, H), ((1.0, -2.0, 3.0, -2.0, 1.0), (1.0, -1.0, 1.0))),
    (GQuat(0.5, 1.5, -0.25, 2.0, family("split")),
     ((2.44140625, 3.125, -2.125, -2.0, 1.0), (-1.5625, -1.0, 1.0))),
    (GQuat(0.5, 0.5, 0.25, 0.25, ParamTriple(2.0, 3.0, 5.0)),
     ((10.97265625, -6.625, 7.625, -2.0, 1.0), (3.3125, -1.0, 1.0))),
], ids=["hamilton", "split", "2,3,5"])
def test_char_poly_is_a_plain_pair_of_float_tuples(q, expected):
    result = char_poly(q)
    assert type(result) is tuple and len(result) == 2
    coefficients, quadratic = result
    assert type(coefficients) is tuple and len(coefficients) == 5
    assert type(quadratic) is tuple and len(quadratic) == 3
    assert all(type(c) is float for c in (*coefficients, *quadratic))
    assert result == expected


def test_char_poly_is_square_of_quadratic(rng):
    for params in FAMILIES:
        p = random_quat(rng, params)
        coefficients, (c0, c1, c2) = char_poly(p)
        assert c2 == 1.0
        expanded = np.polymul([c2, c1, c0], [c2, c1, c0])[::-1]
        assert np.allclose(expanded, coefficients, rtol=0,
                           atol=1e-12 * max(1.0, np.abs(expanded).max()))
        assert coefficients[-1] == 1.0


@pytest.mark.parametrize("params", FAMILIES)
def test_char_poly_vanishes_on_eigenvalues(rng, params):
    for _ in range(30):
        p = random_quat(rng, params)
        coefficients, _ = char_poly(p)
        for value in eigenvalues(p):
            assert abs(poly_at(coefficients, value)) <= 1e-8


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
        got, _ = char_poly(p)
        assert np.allclose(coeffs, got, rtol=0, atol=1e-8 * max(1.0, np.abs(coeffs).max()))


# --- eigenvalues ------------------------------------------------------------------------

def test_eigenvalues_of_e1_at_hamilton():
    values = sorted(eigenvalues(GQuat.basis(1, H)), key=lambda z: z.imag)
    assert values[0] == pytest.approx(-1j)
    assert values[1] == pytest.approx(1j)


def test_eigenvalues_real_for_negative_discriminant():
    split = family("split")
    p = GQuat(0.0, 0.0, 0.0, 1.0, split)  # discriminant l23 = -1
    t1, t2 = eigenvalues(p)
    assert t1.imag == 0.0 and t2.imag == 0.0
    assert sorted([t1.real, t2.real]) == [-1.0, 1.0]
    m = as_array(left_matrix(p))
    for t in (t1.real, t2.real):
        # closed-form real eigenvalues really are eigenvalues of the matrix
        assert abs(np.linalg.det(m - t * np.eye(4))) <= 1e-10


@pytest.mark.parametrize("params", FAMILIES)
def test_eigenvalue_product_is_norm(rng, params):
    for _ in range(30):
        p = random_quat(rng, params)
        t1, t2 = eigenvalues(p)
        prod = t1 * t2
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
        for value, vector in pairs:
            v = np.array(vector)
            residual = np.linalg.norm(m @ v - value * v)
            assert residual <= 1e-8 * np.linalg.norm(v)


def test_eigenvectors_of_hamilton_example():
    p = GQuat(0.0, 1.0, 1.0, 1.0, H)
    m = as_array(left_matrix(p)).astype(complex)
    for value, vector in eigenvectors(p):
        v = np.array(vector)
        assert np.linalg.norm(m @ v - value * v) <= 1e-10 * np.linalg.norm(v)


def test_eigenvector_pairs_are_independent(rng):
    for params in FAMILIES:
        p = random_quat(rng, params)
        try:
            pairs = eigenvectors(p)
        except DegenerateAxis:
            continue
        # Each eigenvalue of multiplicity two has two independent vectors.
        t_plus, t_minus = eigenvalues(p)
        assert [value for value, _ in pairs] == [t_plus, t_plus, t_minus, t_minus]
        for half in (pairs[:2], pairs[2:]):
            assert np.linalg.matrix_rank(np.array([vector for _, vector in half])) == 2


# A unit Hamilton element and one element each of split and 2,3,5, with a2 != 0.
@pytest.mark.parametrize("q", [GQuat(0.6, 0.0, 0.8, 0.0, H),
                               GQuat(0.5, 1.5, -0.25, 2.0, family("split")),
                               GQuat(0.3, 0.2, 0.1, 0.05, ParamTriple(2.0, 3.0, 5.0))],
                         ids=["hamilton", "split", "2,3,5"])
def test_eigenvectors_are_plain_value_vector_pairs(q):
    pairs = eigenvectors(q)
    assert type(pairs) is tuple and len(pairs) == 4
    for value, vector in pairs:
        assert type(value) is complex and type(vector) is tuple and len(vector) == 4
        assert all(type(z) is complex for z in vector)
    t_plus, t_minus = eigenvalues(q)
    assert [value for value, _ in pairs] == [t_plus, t_plus, t_minus, t_minus]


def test_degenerate_axis_raises():
    p = GQuat(1.0, 2.0, 0.0, 0.0, H)  # a2 = a3 = 0
    with pytest.raises(DegenerateAxis):
        eigenvectors(p)
    # cancellation between terms, not just zero components
    mixed = ParamTriple(1.0, -1.0, 1.0)
    q = GQuat(0.5, 1.0, 1.0, 1.0, mixed)  # l1*a2^2 + l2*a3^2 = 1 - 1 = 0
    with pytest.raises(DegenerateAxis):
        eigenvectors(q)


@pytest.mark.parametrize("params", [H, ParamTriple(1.0, -1.0, 1.0)])
def test_overflowing_eigenvector_denominator_is_non_finite(params):
    # inf (or inf - inf) is no evidence of a vanishing denominator.
    with pytest.raises(NonFinite):
        eigenvectors(GQuat(1e200, 1e200, 1e200, 0.0, params))
    with pytest.raises(NonFinite):
        eigenvectors(GQuat(0.0, 0.0, 1e200, 1e200, params))


@pytest.mark.parametrize("params", [H, ParamTriple(1.0, -1.0, 1.0)])
def test_overflowing_eigen_data_is_non_finite(params):
    # D overflows (Hamilton) or is inf - inf (split sign): the roots a0 +/- sqrt(-D)
    # would be +-infj or nan.
    with pytest.raises(NonFinite):
        eigenvalues(GQuat(0.0, 1e200, 1e200, 0.0, params))
    with pytest.raises(NonFinite):
        eigenvectors(GQuat(0.0, 1e200, 1e-150, 1e-150, params))
    # D and the denominator 1e-320 are finite, the quotients are not.
    with pytest.raises(NonFinite):
        eigenvectors(GQuat(0.0, 1e150, 1e-160, 0.0, params))


# --- matrix container behavior --------------------------------------------------------------

def test_mat4_validates_shape_and_finiteness():
    for rows in (np.eye(3), [[1, 0, 0, 0]] * 3, [[1, 0, 0]] * 4):
        with pytest.raises(ValueError):
            Mat4(rows)
    bad = np.eye(4)
    bad[0, 0] = np.inf
    with pytest.raises(ValueError):
        Mat4(bad)


def test_matrix_rows_must_be_sequences():
    with pytest.raises(ValueError, match="^Mat3 needs 3 rows of 3 numbers: "):
        Mat3([1, 2, 3])


@pytest.mark.parametrize("cls,size", [(Mat3, 3), (Mat4, 4)])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_matrix_rejects_non_finite_entry_at_every_position(cls, size, bad):
    for i in range(size):
        for j in range(size):
            data = np.eye(size)
            data[i, j] = bad
            with pytest.raises(ValueError):
                cls(data)
            with pytest.raises(ValueError):
                cls(data.tolist())


@pytest.mark.parametrize("cls,size", [(Mat3, 3), (Mat4, 4)])
def test_matrix_is_read_only_and_copies_its_input(cls, size):
    data = np.arange(size * size, dtype=float).reshape(size, size)
    m = cls(data)
    assert isinstance(m, cls)
    assert m.shape == (size, size)
    with pytest.raises(TypeError):
        m[0, 0] = 1.0
    with pytest.raises(TypeError):
        m[0][0] = 1.0
    assert [list(row) for row in m] == data.tolist()
    data[0, 0] = 99.0  # the input is copied, not frozen or shared
    assert m[0][0] == 0.0
    with pytest.raises(TypeError):
        m[0, 0]  # a tuple of rows: one index at a time
    rows = data.tolist()
    m = cls(rows)
    rows[0][0] = 7.0
    assert m[0][0] == 99.0


def test_mat4_product_is_a_mat4():
    m = left_matrix(GQuat.basis(1, H))
    prod = m @ m
    assert isinstance(prod, Mat4)
    assert m[1][0] == 1.0
    assert [list(row) for row in prod] == (-np.eye(4)).tolist()  # e1^2 = -1 at Hamilton


def test_matrix_product_matches_numpy(rng):
    for cls, size in ((Mat3, 3), (Mat4, 4)):
        a, b = rng.standard_normal((2, size, size))
        prod = cls(a) @ cls(b)
        assert isinstance(prod, cls)
        assert np.allclose(as_array(prod), a @ b, rtol=0, atol=1e-14 * np.abs(a @ b).max())


def test_matrix_product_needs_equal_shapes():
    m3, m4 = Mat3(np.eye(3)), Mat4(np.eye(4))
    for left, right in ((m3, m4), (m4, m3)):
        with pytest.raises(TypeError):
            left @ right


def test_matrix_has_no_tuple_arithmetic():
    # + and * would concatenate or repeat the rows; elementwise arithmetic
    # goes through np.asarray instead.
    m = Mat4(np.eye(4))
    for op in (lambda: m + m, lambda: m * 2, lambda: 2 * m):
        with pytest.raises(TypeError):
            op()
    assert np.array_equal(2.0 * as_array(m) + m, 3.0 * np.eye(4))


def test_matrix_keeps_negative_zero():
    rows = [[-0.0, 1.0, 0.0], [0.0, -0.0, 2.0], [3.0, 4.0, -0.0]]
    m = Mat3(rows)
    signs = [[math.copysign(1.0, x) for x in row] for row in m]
    assert signs == [[math.copysign(1.0, x) for x in row] for row in rows]
    assert json.dumps(m) == json.dumps(rows)


@pytest.mark.parametrize("cls,size", [(Mat3, 3), (Mat4, 4)])
def test_matrix_round_trips_through_numpy(rng, cls, size):
    data = rng.standard_normal((size, size))
    m = cls(data)
    arr = np.asarray(m)
    assert arr.dtype == np.float64 and arr.shape == (size, size)
    assert np.array_equal(arr, data)
    assert cls(arr) == m
    assert np.asarray(m, dtype=np.float32).dtype == np.float32


# --- matrices built from kernel rows ------------------------------------------------------
# left_matrix, right_matrix, the polar builders, the adjoint builders, the skews and ``@``
# take rows a kernel just built: one finiteness pass, no float() copy and no shape check.

P235 = ParamTriple(2.0, 3.0, 5.0)


def _kernel_built(params, rng):
    """(name, matrix) for every builder on kernel rows, over one triple."""
    p, q = random_quat(rng, params), random_quat(rng, params)
    v = random_vec(rng, params)
    built = [
        ("left_matrix", left_matrix(p)),
        ("right_matrix", right_matrix(p)),
        *((f"base_matrices[{i}]", m) for i, m in enumerate(base_matrices(params))),
        ("polar_matrix", polar_matrix(v, 0.7)),
        ("adjoint_closed_form", adjoint_closed_form(p)),
        ("skew_of_axis", skew_of_axis(v)),
        ("ad_matrix", ad_matrix(v)),
        ("Mat4 @", left_matrix(p) @ right_matrix(q)),
        ("Mat3 @", skew_of_axis(v) @ adjoint_closed_form(q)),
        ("adjoint_group", adjoint_group(p)),
    ]
    if params.l12 > 0.0:
        # cos(t) + sin(t)/sqrt(l12)*e1 is unit and elliptic.  Quarter and split-semi
        # (l12 <= 0) have no elliptic element; no polar builder applies there.
        t = 0.7
        unit = GQuat(math.cos(t), math.sin(t) / math.sqrt(params.l12), 0.0, 0.0, params)
        axis = GVec3(1.0 / math.sqrt(params.l12), 0.0, 0.0, params)
        built += [("matrix_pow", matrix_pow(unit, -5)),
                  ("euler_exp_matrix", euler_exp_matrix(axis, t)),
                  *((f"matrix_roots[{k}]", m) for k, m in enumerate(matrix_roots(unit, 8)))]
    if is_compact(params):
        built.append(("adjoint_rodrigues", adjoint_rodrigues(axis, t)))
    return built


@pytest.mark.parametrize("params", FAMILIES)
def test_kernel_built_matrices_keep_the_public_contract(rng, params):
    for name, m in _kernel_built(params, rng):
        public = type(m)([list(row) for row in m])
        assert [x.hex() for row in m for x in row] == [x.hex() for row in public for x in row], name
        assert all(type(row) is tuple and len(row) == m.shape[0] for row in m), name
        assert all(type(x) is float for row in m for x in row), name
        assert len(m) == m.shape[0] and m == public, name
        with pytest.raises(TypeError):
            m[0] = public[0]
        with pytest.raises(TypeError):
            m[0][0] = 1.0


@pytest.mark.parametrize("params", FAMILIES)
def test_matrices_are_frozen_and_still_copy(rng, params):
    other = ParamTriple(2.0, 3.0, 5.0)
    for name, kernel_built in _kernel_built(params, rng):
        for m in (kernel_built, type(kernel_built)(kernel_built)):
            for write in (lambda: setattr(m, "params", other), lambda: setattr(m, "foo", 1),
                          lambda: delattr(m, "params"), lambda: delattr(m, "foo")):
                with pytest.raises(AttributeError) as info:
                    write()
                assert type(info.value) is AttributeError
            assert vars(m) == {}, name
            for twin in (pickle.loads(pickle.dumps(m)), copy.copy(m), copy.deepcopy(m)):
                assert type(twin) is type(m) and twin == m, name
            assert np.asarray(m).tolist() == [list(row) for row in m], name


@pytest.mark.parametrize("build,message", [
    (lambda: left_matrix(GQuat(0, 0, 0, 1e308, P235)), "Mat4"),
    (lambda: right_matrix(GQuat(0, 0, 0, 1e308, P235)), "Mat4"),
    (lambda: skew_of_axis(GVec3(1e308, 0, 0, P235)), "Mat3"),
    (lambda: ad_matrix(GVec3(1e308, 0, 0, P235)), "Mat3"),
    (lambda: polar_matrix(GVec3(1e308, 0, 0, P235), 1.0), "Mat4"),
    (lambda: adjoint_closed_form(GQuat(1e200, 0, 0, 0, P235)), "Mat3"),
    (lambda: Mat3(np.eye(3) * 1e200) @ Mat3(np.eye(3) * 1e200), "Mat3"),
    (lambda: Mat4(np.eye(4) * 1e200) @ Mat4(np.eye(4) * 1e200), "Mat4"),
], ids=["left_matrix", "right_matrix", "skew_of_axis", "ad_matrix", "polar_matrix",
        "adjoint_closed_form", "Mat3 @", "Mat4 @"])
def test_kernel_built_matrices_still_refuse_overflow(build, message):
    with pytest.raises(NonFinite, match=f"^{message} entries must be finite$"):
        build()


def test_kernel_built_matrices_skip_the_public_constructor(monkeypatch):
    calls = []
    public_new = vars(_TaggedMatrix)["__new__"].__func__

    def counting_new(cls, *args, **kwargs):
        calls.append(cls)
        return public_new(cls, *args, **kwargs)

    monkeypatch.setattr(_TaggedMatrix, "__new__", staticmethod(counting_new))
    unit = GQuat(-0.5, 0.5, 0.5, 0.5, H)
    assert len(matrix_roots(unit, 8)) == 8
    matrix_pow(unit, 3)
    left_matrix(unit)
    adjoint_group(unit)
    adjoint_rodrigues(GVec3(0.0, 0.6, 0.8, H), 0.5)
    assert calls == []
    Mat4(np.eye(4))
    assert calls == [Mat4]

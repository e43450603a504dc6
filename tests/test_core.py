"""Pointwise algebra: product, conjugate, norm, inverse, bilinear machinery."""

import copy
import dataclasses
import inspect
import itertools
import math
import operator
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gq3 import (
    GQuat,
    GVec3,
    NonFinite,
    ParamMismatch,
    ParamTriple,
    PolarForm,
    ZeroNorm,
    bilinear_f,
    bracket,
    demoivre_pow,
    euler_exp,
    family,
    wedge,
    wedge_triple_left,
    wedge_triple_right,
)
from gq3.cli import OPS, OpSpec, execute_request
from helpers import (EDGE_VECS, FAMILIES, POSITIVE_FAMILIES, quat_close, random_quat,
                     random_unit_vector, random_vec, rel_close, vec_close)

from _hamilton import HQuat

H = family("hamilton")


# --- parameter families ------------------------------------------------------

def test_family_assignments():
    assert family("hamilton") == ParamTriple(1.0, 1.0, 1.0)
    assert family("split") == ParamTriple(1.0, 1.0, -1.0)
    assert family("semi") == ParamTriple(1.0, 1.0, 0.0)
    assert family("split-semi") == ParamTriple(1.0, -1.0, 0.0)
    assert family("quarter") == ParamTriple(1.0, 0.0, 0.0)
    assert family("2param", 2.5, -0.5) == ParamTriple(1.0, 2.5, -0.5)


def test_family_rejects_unknown_names():
    with pytest.raises(ValueError):
        family("octonion")
    with pytest.raises(ValueError):
        family("hamilton", 1.0)
    with pytest.raises(ValueError, match="^2param family needs exactly two parameters$"):
        family("2param", 1.0)
    # Only the documented names: no other case, no _ for -, no "two-param".
    for name, args in (("Hamilton", ()), ("split_semi", ()), ("two-param", (1, 2))):
        with pytest.raises(ValueError, match=f"^unknown family {name!r}$"):
            family(name, *args)


def test_param_triple_rejects_non_finite():
    with pytest.raises(ValueError):
        ParamTriple(1.0, float("nan"), 1.0)
    with pytest.raises(ValueError):
        ParamTriple(float("inf"), 1.0, 1.0)


def test_values_are_immutable():
    p = GQuat(1.0, 2.0, 3.0, 4.0, H)
    with pytest.raises(AttributeError) as info:
        p.a0 = 5.0
    assert type(info.value) is AttributeError
    with pytest.raises(AttributeError) as info:
        H.lambda1 = 2.0
    assert type(info.value) is AttributeError


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


# --- the componentwise structure GQuat and GVec3 share -------------------------------

KINDS = {GQuat: 4, GVec3: 3}


def _bits(values) -> list[str]:
    # float.hex tells -0.0 from 0.0, so equal lists mean equal bits.
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("params", FAMILIES)
@pytest.mark.parametrize("cls", KINDS)
def test_componentwise_ops_are_the_float_ops(rng, cls, params):
    for _ in range(10):
        a, b = (rng.standard_normal(KINDS[cls]) * 10.0 ** rng.integers(-5, 6) for _ in "ab")
        x, y = cls(*a, params), cls(*b, params)
        a, b = x.components, y.components
        assert _bits((-x).components) == _bits(-u for u in a)
        assert _bits((x + y).components) == _bits(u + v for u, v in zip(a, b))
        assert _bits((x - y).components) == _bits(u - v for u, v in zip(a, b))
        for c in (3, -0.3, 0.0, float(rng.standard_normal())):
            expected = _bits(c * u for u in a)
            assert _bits((c * x).components) == expected
            assert _bits((x * c).components) == expected
            assert _bits(x.scale(c).components) == expected
        assert cls(*a, params) == x and (-x).params is params


@pytest.mark.parametrize("params", FAMILIES)
def test_repr_shows_components_g_formatted_and_the_triple(params):
    lam = params.lambda1, params.lambda2, params.lambda3
    assert repr(GQuat(1.0, -2.5, 3e-20, 4e20, params)) == (
        f"GQuat(1, -2.5, 3e-20, 4e+20; params={lam})")
    assert repr(GVec3(-0.0, 0.125, 1234567.0, params)) == (
        f"GVec3(-0, 0.125, 1.23457e+06; params={lam})")


@pytest.mark.parametrize("cls", KINDS)
def test_basis_and_its_index_range(cls):
    first = 4 - KINDS[cls]
    for i in range(first, 4):
        e = cls.basis(i, H)
        assert e.components == tuple(float(j == i) for j in range(first, 4))
    message = "basis index must be 0..3" if cls is GQuat else "vector basis index must be 1..3"
    for i in (first - 1, 4):
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}, got {i}$"):
            cls.basis(i, H)
    # str() of an int past 4,300 digits raises its own ValueError.
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}, got an integer of more "
                                         "than 4,300 digits$"):
        cls.basis(10**5000, H)


@pytest.mark.parametrize("cls", KINDS)
def test_from_components_needs_one_value_per_component(cls):
    # Only GQuat has it; a GVec3 is built as GVec3(*c, p).
    if cls is GVec3:
        assert not hasattr(GVec3, "from_components")
        return
    for n in (3, 5):
        with pytest.raises(ValueError, match=rf"^GQuat takes 4 components, got {n}$"):
            GQuat.from_components([1.0] * n, H)


def test_quaternions_and_vectors_do_not_mix():
    p, v = GQuat(0.0, 1.0, 2.0, 3.0, H), GVec3(1.0, 2.0, 3.0, H)
    for op in (lambda: p + v, lambda: v + p, lambda: p - v, lambda: v - p, lambda: v * v):
        with pytest.raises(TypeError):
            op()
    assert p == v.as_quat() and p != v and v != p


def test_product_with_a_non_number_raises_type_error():
    p = GQuat(0.0, 1.0, 2.0, 3.0, H)
    for other in ("x", None, [1.0]):
        with pytest.raises(TypeError):
            p * other


@pytest.mark.parametrize("cls", KINDS)
def test_componentwise_ops_refuse_mixed_triples(cls):
    x = cls.basis(1, H)
    y = cls.basis(1, family("split"))
    for op in (lambda: x + y, lambda: x - y, lambda: y + x, lambda: y - x):
        with pytest.raises(ParamMismatch):
            op()


def test_equal_triples_that_are_distinct_objects_are_one_algebra():
    # Operands share an algebra when their triples are equal, not only when they are one object.
    twin = ParamTriple(1, 1, 1)
    assert twin == H and twin is not H
    p, q, q_h = GQuat(1, 2, 3, 4, H), GQuat(1, 0, 0, 0, twin), GQuat(1, 0, 0, 0, H)
    for op in (operator.mul, operator.add, operator.sub, GQuat.dot):
        assert op(p, q) == op(p, q_h) and op(q, p) == op(q_h, p)
    u, v, v_h = GVec3(1, 2, 3, H), GVec3(0.5, -1, 2, twin), GVec3(0.5, -1, 2, H)
    for op in (wedge, bilinear_f):
        assert op(u, v) == op(u, v_h) and op(v, u) == op(v_h, u)


@pytest.mark.parametrize("cls", KINDS)
def test_fields_and_params_are_the_record_fields(cls):
    names = cls._FIELDS + ("params",)
    assert tuple(inspect.signature(cls).parameters) == names == cls.__match_args__
    x = cls(*range(1, len(cls._FIELDS) + 1), H)
    assert hash(x) == hash(tuple(getattr(x, name) for name in names))
    assert [getattr(x, name) for name in cls._FIELDS] == list(x.components)
    for twin in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
        assert twin == x and vars(twin) == vars(x)
    match x:
        case GQuat(a0, a1, a2, a3, params):
            assert (a0, a1, a2, a3, params) == (*x.components, H)
        case GVec3(a1, a2, a3, params):
            assert (a1, a2, a3, params) == (*x.components, H)
        case _:
            pytest.fail(f"no pattern matched {x!r}")
    for name in names:
        values = {n: getattr(x, n) for n in names}
        values[name] = family("split") if name == "params" else 0.5
        assert cls(**values) != x, name


# One value of each record type, and the same fields passed by keyword.
_V = GVec3(0.6, 0.0, 0.8, H)
_S = family("split")
RECORDS = [
    (H, dict(lambda1=1.0, lambda2=1.0, lambda3=1.0)),
    (PolarForm(2.0, 0.5, _V, H), dict(modulus=2.0, theta=0.5, axis=_V, params=H)),
    (PolarForm(1.0, 0.0, None, H), dict(modulus=1.0, theta=0.0, axis=None, params=H)),
    (PolarForm(0.5, 0.0, None, _S), dict(modulus=0.5, theta=0.0, axis=None, params=_S)),
    (OPS["roots"], {name: getattr(OPS["roots"], name) for name in OpSpec.__match_args__}),
]


@pytest.mark.parametrize("record, fields", RECORDS,
                         ids=[type(record).__name__ for record, _ in RECORDS])
def test_records_compare_hash_and_print_by_their_fields(record, fields):
    cls = type(record)
    assert tuple(inspect.signature(cls).parameters) == cls.__match_args__ == tuple(fields)
    values = tuple(fields.values())
    assert cls(**fields) == record == cls(*values) and hash(record) == hash(values)
    assert record != object() and record != GQuat.scalar(1.0, H)
    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(record) == f"{cls.__name__}({shown})"
    assert not dataclasses.is_dataclass(record)
    for name in (*fields, "other"):
        with pytest.raises(AttributeError, match=rf"^cannot assign to field '{name}'$") as info:
            setattr(record, name, 0)
        assert type(info.value) is AttributeError
        with pytest.raises(AttributeError, match=rf"^cannot delete field '{name}'$") as info:
            delattr(record, name)
        assert type(info.value) is AttributeError
    assert tuple(getattr(record, name) for name in fields) == values


def test_mixing_params_raises():
    p = GQuat(1.0, 0.0, 0.0, 0.0, H)
    q = GQuat(1.0, 0.0, 0.0, 0.0, family("split"))
    for op in (lambda: p + q, lambda: p - q, lambda: p * q, lambda: p.dot(q)):
        with pytest.raises(ParamMismatch):
            op()
    u = GVec3(1.0, 0.0, 0.0, H)
    v = GVec3(1.0, 0.0, 0.0, family("split"))
    for op in (lambda: bilinear_f(u, v), lambda: wedge(u, v), lambda: u + v,
               lambda: wedge_triple_left(v, u, u), lambda: wedge_triple_left(u, v, u),
               lambda: wedge_triple_left(u, u, v), lambda: wedge_triple_right(v, u, u),
               lambda: wedge_triple_right(u, v, u), lambda: wedge_triple_right(u, u, v)):
        with pytest.raises(ParamMismatch):
            op()


# --- multiplication ----------------------------------------------------------

@pytest.mark.parametrize("params", FAMILIES)
def test_basis_products_follow_the_table(params):
    l1, l2, l3 = params.lambda1, params.lambda2, params.lambda3
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
        one = GQuat.scalar(1.0, params)
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
    params = family("quarter")
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


def test_wedge_and_bracket_refuse_quaternions():
    # A GQuat would lose its scalar part; bilinear_f takes one on purpose.
    p, q, v = GQuat(5.0, 1.0, 0.0, 0.0, H), GQuat(7.0, 0.0, 1.0, 0.0, H), GVec3(0.0, 1.0, 0.0, H)
    calls = [lambda: wedge(p, q), lambda: wedge(p, v), lambda: wedge(v, q),
             lambda: bracket(p, q), lambda: bracket(v, q)]
    for args in ((p, v, v), (v, p, v), (v, v, p)):
        calls += [lambda args=args: wedge_triple_left(*args),
                  lambda args=args: wedge_triple_right(*args)]
    for call in calls:
        with pytest.raises(TypeError, match="^wedge takes two GVec3"):
            call()
    assert bilinear_f(p, q) == 0.0


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
    split = family("split")
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


@pytest.mark.parametrize("params", FAMILIES)
def test_norm_is_the_weighted_sum_of_squares_bit_for_bit(rng, params):
    l1, l2, l3 = params.lambda1, params.lambda2, params.lambda3
    for _ in range(20):
        p = random_quat(rng, params, 10.0)
        a0, a1, a2, a3 = p.components
        expected = a0 * a0 + l1 * l2 * a1 * a1 + l1 * l3 * a2 * a2 + l2 * l3 * a3 * a3
        assert p.norm().hex() == p.dot(p).hex() == expected.hex()
    # The bilinear form keeps the sign of a zero sum: the eight vectors of +-0.0 pin it.
    vecs = [random_vec(rng, params, 10.0) for _ in range(20)]
    vecs += [GVec3(*c, params) for c in [*itertools.product((0.0, -0.0), repeat=3), *EDGE_VECS]]
    for u, v in itertools.product(vecs, repeat=2):
        (u1, u2, u3), (v1, v2, v3) = u.components, v.components
        expected = l1 * l2 * u1 * v1 + l1 * l3 * u2 * v2 + l2 * l3 * u3 * v3
        if math.isfinite(expected):
            assert bilinear_f(u, v).hex() == expected.hex()
        else:
            with pytest.raises(NonFinite):
                bilinear_f(u, v)


def test_dot_refuses_a_vector():
    with pytest.raises(TypeError, match="^dot takes a GQuat, got GVec3$"):
        GQuat(1.0, 2.0, 3.0, 4.0, H).dot(GVec3(1.0, 2.0, 3.0, H))


def test_inverse_examples():
    assert GQuat.scalar(1.0, H).inverse().components == (1.0, 0.0, 0.0, 0.0)
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
        assert quat_close(p * p.inverse(), GQuat.scalar(1.0, params), 1e-10)
        assert quat_close(p.inverse() * p, GQuat.scalar(1.0, params), 1e-10)


def test_inverse_of_product_and_scalar_multiple(rng):
    params = ParamTriple(2.0, 3.0, 5.0)
    for _ in range(20):
        p, q = random_quat(rng, params), random_quat(rng, params)
        if abs(p.norm()) < 1e-3 or abs(q.norm()) < 1e-3:
            continue
        assert quat_close((p * q).inverse(), q.inverse() * p.inverse(), 1e-10)
        assert quat_close(p.scale(4.0).inverse(), p.inverse().scale(0.25), 1e-12)


def test_inverse_raises_on_null():
    split = family("split")
    null = GQuat(1.0, 0.0, 1.0, 0.0, split)  # 1 + e2 has norm 1 - 1 = 0
    assert null.norm() == 0.0
    with pytest.raises(ZeroNorm):
        null.inverse()
    quarter = family("quarter")
    with pytest.raises(ZeroNorm):
        GQuat.basis(2, quarter).inverse()  # norm l1*l3 = 0


# --- scalar product --------------------------------------------------------------

def test_scalar_product_examples():
    p = GQuat(1.0, 2.0, 3.0, 4.0, H)
    assert GQuat.dot(p, p) == p.norm()
    assert GQuat.dot(GQuat.scalar(1.0, H), GQuat.basis(1, H)) == 0.0


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


def test_is_pure_exactly_when_the_scalar_part_is_zero():
    for a0 in (0.0, -0.0):
        assert GQuat(a0, 1.0, 2.0, 3.0, H).is_pure
    for a0 in (1.0, -5e-324, 1e-300):
        assert not GQuat(a0, 0.0, 0.0, 0.0, H).is_pure


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


# --- construction: the public constructor copies, kernels build from floats ----------------


def test_public_constructors_store_floats_from_any_real_number():
    import numpy as np

    q = GQuat(1, True, np.float64(2.5), -3, H)
    v = GVec3(False, np.float64(-0.5), 7, H)
    for value, expected in ((q, (1.0, 1.0, 2.5, -3.0)), (v, (0.0, -0.5, 7.0))):
        assert value.components == expected
        assert all(type(x) is float for x in value.components)


_KERNEL_BUILT = {
    "mul": lambda p, q, u, v: p * q,
    "add": lambda p, q, u, v: p + q,
    "sub": lambda p, q, u, v: p - q,
    "neg": lambda p, q, u, v: -u,
    "conj": lambda p, q, u, v: p.conj(),
    "inverse": lambda p, q, u, v: p.inverse(),
    "wedge": lambda p, q, u, v: wedge(u, v),
    "bracket": lambda p, q, u, v: bracket(u, v),
}


def _assert_public_contract(value, params):
    public = type(value)(*value.components, params)
    assert [x.hex() for x in value.components] == [x.hex() for x in public.components]
    assert all(type(x) is float for x in value.components)
    assert value == public and hash(value) == hash(public) and repr(value) == repr(public)
    assert vars(value) == vars(public) and value.params is params
    assert vars(value) == {"params": params, "components": value.components}
    assert type(value.components) is tuple and value.components is value.components
    for write in (lambda: setattr(value, "a1", 0.0), lambda: delattr(value, "a1"),
                  lambda: setattr(value, "foo", 1)):
        with pytest.raises(AttributeError) as info:
            write()
        assert type(info.value) is AttributeError


@pytest.mark.parametrize("build", sorted(_KERNEL_BUILT))
@pytest.mark.parametrize("params", FAMILIES)
def test_kernel_built_values_keep_the_public_contract(rng, params, build):
    p, q = random_quat(rng, params), random_quat(rng, params)
    u, v = random_vec(rng, params), random_vec(rng, params)
    _assert_public_contract(_KERNEL_BUILT[build](p, q, u, v), params)


@pytest.mark.parametrize("params", POSITIVE_FAMILIES)
def test_powers_and_exponentials_keep_the_public_contract(rng, params):
    # PolarForm.compose builds both from the floats of the _compose kernel, also when a
    # caller's form holds a modulus of another real type.
    import numpy as np

    p, v = random_quat(rng, params), random_unit_vector(rng, params)
    for value in (demoivre_pow(p, 5), demoivre_pow(p, -3), euler_exp(v, 0.7),
                  PolarForm(np.float32(2.0), 0.7, v, params).compose()):
        _assert_public_contract(value, params)


@pytest.mark.parametrize("params", FAMILIES)
def test_inverse_and_bracket_keep_the_bits_of_their_public_routes(rng, params):
    # inverse is one build of r * a0, r * -a1, ... and bracket one of 2.0 * w: the
    # products conj().scale(1 / n) and wedge(...).scale(2.0) make.
    p, u, v = random_quat(rng, params), random_vec(rng, params), random_vec(rng, params)
    for built, public in ((p.inverse(), p.conj().scale(1.0 / p.norm())),
                          (bracket(u, v), wedge(u, v).scale(2.0))):
        assert [x.hex() for x in built.components] == [x.hex() for x in public.components]


@pytest.mark.parametrize("op", ["mul", "add"])
def test_overflowing_kernel_results_still_raise_nonfinite(op):
    big = GQuat(1e308, 0.0, 0.0, 0.0, H)
    other = GQuat(10.0, 0.0, 0.0, 0.0, H) if op == "mul" else big
    with pytest.raises(NonFinite, match=r"^component a0 must be finite, got inf$"):
        _KERNEL_BUILT[op](big, other, None, None)
    response, code = execute_request({"params": "hamilton", "op": op,
                                      "operands": [list(big.components),
                                                   list(other.components)]})
    assert (response, code) == ({"status": "error", "code": "non_finite",
                                 "message": "component a0 must be finite, got inf"}, 1)

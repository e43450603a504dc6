"""The null test does not depend on the overall scale of the input, and overflow is typed.

The norm gate is relative: ``|N(p)| <= 1e-12`` times the sum of the sizes of N(p)'s terms.
Scaling p by c = 2**k scales every term by c*c exactly while the terms stay normal doubles,
so the gate, and with it the inverse and the polar form, follows the scaling bit for bit.
A value that leaves double range raises ``NonFinite``, which is both an ``AlgebraError``
and a ``ValueError``: every number a public function returns is finite.
"""

import cmath
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gq3 import (
    AlgebraError,
    CongruenceViolation,
    GQuat,
    GVec3,
    Mat3,
    Mat4,
    NonFinite,
    ParamTriple,
    PolarForm,
    adjoint_group,
    adjoint_rodrigues,
    bilinear_f,
    char_poly,
    demoivre_pow,
    det4,
    eigenvectors,
    euler_exp,
    euler_exp_matrix,
    family,
    is_compact,
    killing_form,
    left_matrix,
    matrix_pow,
    matrix_roots,
    polar_matrix,
    scaled_power_relation,
    to_polar,
)
from gq3.cli import OPS, execute_request
from gq3.core import _Record
from gq3.polar import MAX_ROOT_DEGREE, UNIT_AXIS_TOL, UNIT_NORM_TOL
from helpers import EDGE_INTS, EDGE_QUATS, EDGE_SCALARS, EDGE_VECS, FAMILIES

H = family("hamilton")
BIG = GQuat(1e200, 0.0, 0.0, 0.0, H)
BIG_VEC = GVec3(1e200, 0.0, 0.0, H)


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
    # The numbers the library returns bare: each is checked where it is computed.
    lambda: BIG.norm(),
    lambda: BIG.dot(BIG),
    lambda: det4(left_matrix(BIG)),  # inf - inf in the cofactor expansion: NaN
    lambda: bilinear_f(BIG_VEC, BIG_VEC),
    lambda: killing_form(BIG_VEC, BIG_VEC),
    lambda: char_poly(GQuat(1e100, 1e100, 0.0, 0.0, H)),  # norm 2e200, its square inf
], ids=["mul", "scale", "add", "mat3", "inverse", "adjoint", "polar", "matrix-pow-int",
        "matrix-pow-angle", "scaled-pow-period", "pow-long-n", "scaled-pow-long-n-s",
        "norm", "dot", "det4", "bilinear", "killing", "char-poly"])
def test_overflow_raises_non_finite(compute):
    with pytest.raises(NonFinite):
        compute()


@pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("compute", [
    euler_exp,
    euler_exp_matrix,
    polar_matrix,
    adjoint_rodrigues,
    lambda axis, theta: PolarForm(2.0, theta, axis, H).compose(),
    lambda axis, theta: PolarForm(2.0, theta, None, H).compose(),
], ids=["exp", "exp-matrix", "polar-matrix", "rodrigues", "compose", "compose-scalar"])
def test_non_finite_angle_raises_non_finite(compute, theta):
    # math.cos(inf) raises a bare ValueError("math domain error"); NaN passes through it.
    with pytest.raises(NonFinite):
        compute(GVec3(1.0, 0.0, 0.0, H), theta)


@pytest.mark.parametrize("big", [10**400, 10**5000], ids=["past-float-range", "past-repr"])
@pytest.mark.parametrize("compute", [
    lambda big: ParamTriple(big, 1.0, 1.0),
    lambda big: GQuat(big, 0.0, 0.0, 0.0, H),
    lambda big: GVec3(big, 0.0, 0.0, H),
    lambda big: Mat4([[big] * 4] * 4),
    lambda big: det4([[big] * 4] * 4),
    lambda big: euler_exp(GVec3(1.0, 0.0, 0.0, H), big),
    lambda big: euler_exp_matrix(GVec3(1.0, 0.0, 0.0, H), big),
    lambda big: polar_matrix(GVec3(1.0, 0.0, 0.0, H), big),
    lambda big: adjoint_rodrigues(GVec3(1.0, 0.0, 0.0, H), big),
    lambda big: PolarForm(big, 0.5, None, H).compose(),
    lambda big: GQuat.scalar(1.0, H).scale(big),
    lambda big: big * GQuat.scalar(1.0, H),
], ids=["params", "quat", "vec", "mat4", "det4", "exp", "exp-matrix", "polar-matrix",
        "rodrigues", "compose", "scale", "rmul"])
def test_an_int_past_the_float_range_raises_non_finite(compute, big):
    # Only a Python caller can pass one: the CLI's readers refuse it first.  Past 4,300
    # digits repr raises, so the message must not be built with it either.
    with pytest.raises(NonFinite):
        compute(big)


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


# The families whose form is not positive definite, where terms of opposite sign or a zero
# weight can turn an overflowing gate quantity into NaN, and a positive triple whose weight
# l12 overflows, so that rodrigues passes its family check and reaches its gate.
_GATE_TRIPLES = [*(params for params in FAMILIES if not is_compact(params)),
                 ParamTriple(1e200, 1e200, 1.0)]
_HUGE = st.floats(1e150, 1e308) | st.floats(-1e308, -1e150)
# Gated op -> (whether its gate reads f(v, v) of the vector part, else the norm; tolerance).
_GATES = {"exp": (True, UNIT_AXIS_TOL), "exp-matrix": (True, UNIT_AXIS_TOL),
          "rodrigues": (True, UNIT_AXIS_TOL), "matrix-pow": (False, UNIT_NORM_TOL),
          "roots": (False, UNIT_NORM_TOL), "period": (False, UNIT_NORM_TOL)}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_GATE_TRIPLES), st.lists(_HUGE, min_size=4, max_size=4),
       st.floats(-4.0, 4.0))
def test_gated_ops_answer_ok_only_when_the_exact_gate_quantity_is_one(params, comps, theta):
    l1, l2, l3 = map(Fraction, (params.lambda1, params.lambda2, params.lambda3))
    form = sum(w * Fraction(x) ** 2 for w, x in zip((l1 * l2, l1 * l3, l2 * l3), comps[1:]))
    for op, (on_vector, tol) in _GATES.items():
        operands = [comps[1:], theta] if on_vector else [comps]
        request = {"params": [params.lambda1, params.lambda2, params.lambda3], "op": op,
                   "operands": operands, "options": {"n": 2}}
        response, _ = execute_request(request)
        if response["status"] == "ok":
            exact = form if on_vector else Fraction(comps[0]) ** 2 + form
            assert abs(exact - 1) <= tol, (request, response)


# Requests whose gate quantity overflows to NaN in floating point; each used to pass its gate.
@pytest.mark.parametrize("params,op,operands,code,message", [
    ("split", "exp", [[1e200, 1e200, 0.0], 0.5], "not_unit_vector", "f(v, v) = nan != 1"),
    ("split", "exp-matrix", [[1e200, 1e200, 0.0], 0.5], "not_unit_vector",
     "f(axis, axis) = nan != 1"),
    ("split", "matrix-pow", [[0.0, 1e200, 1e200, 0.0]], "non_unit", "norm nan != 1; "),
    ("split", "period", [[0.0, 1e200, 1e200, 0.0]], "non_unit", "norm nan != 1; "),
    ([1e200, 1e200, 1.0], "rodrigues", [[-0.0, -1.9, 0.0], 0.5], "not_unit_vector",
     "f(axis, axis) = nan != 1"),
])
def test_nan_gate_quantities_answer_the_gate_error(params, op, operands, code, message):
    request = {"params": params, "op": op, "operands": operands, "options": {"n": 2}}
    response, exit_code = execute_request(request)
    assert (exit_code, response["status"], response.get("code")) == (1, "error", code), response
    assert response["message"].startswith(message)


# Every test family, and a triple whose product l12 overflows (the constructor takes it).
_WALK_TRIPLES = [*FAMILIES, ParamTriple(1e200, 1e200, 1.0)]
_WALK_INTS = [*EDGE_INTS, -2, 0, 1, 2, 5]


def _edge_operands(kind: str, params: ParamTriple) -> list:
    if kind == "scalar":
        return EDGE_SCALARS
    cls, edges = (GQuat, EDGE_QUATS) if kind == "quat" else (GVec3, EDGE_VECS)
    return [cls(*x, params) for x in edges]


def _all_finite(value) -> bool:
    """Whether every float and complex part in a value, matrix, record, tuple or list is finite."""
    if isinstance(value, (float, complex)):
        return cmath.isfinite(value)
    if isinstance(value, _Record):
        return _all_finite(value._fields)
    if isinstance(value, (tuple, list)):
        return all(map(_all_finite, value))
    return value is None or isinstance(value, int)  # bool, a period, a degree


@pytest.mark.parametrize("op", sorted(OPS))
def test_every_op_returns_finite_numbers_or_raises_an_algebra_error(op):
    # Each cli.OPS target, called directly: no CLI encoder stands between it and the check.
    spec = OPS[op]
    target = getattr(spec.owner, spec.name)
    for params in _WALK_TRIPLES:
        pools = [_edge_operands(kind, params) for kind in spec.operands] or [[params]]
        for args in itertools.product(*pools, *[_WALK_INTS] * len(spec.ints)):
            if target is matrix_roots and not 1 <= args[-1] <= MAX_ROOT_DEGREE:
                # Refused before the element is looked at; the CLI answers it bad_request.
                with pytest.raises(ValueError, match="^root degree must be"):
                    target(*args)
                continue
            try:
                value = target(*args)
            except AlgebraError:
                continue
            assert _all_finite(value), args

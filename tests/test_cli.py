"""Command-line front end: dispatch, JSON wire format, exit codes, batch mode."""

import io
import json
import math

import pytest

from gq3.cli import OPS, execute_request, main


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def run_json(argv):
    code, out, err = run(argv)
    assert out.strip(), f"no stdout; stderr: {err}"
    return code, json.loads(out)


# --- single-shot basics --------------------------------------------------------

def test_mul_example():
    code, out, err = run(["--family", "hamilton", "mul", "1,0,0,0", "0,1,0,0"])
    assert code == 0
    assert out == '{"status":"ok","result":{"quat":[0.0,1.0,0.0,0.0]}}\n'


def test_pow_of_worked_example():
    code, body = run_json(["--params", "1,1,1", "pow", "-0.5,0.5,0.5,0.5", "--n", "21"])
    assert code == 0
    quat = body["result"]["quat"]
    assert quat == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=1e-10)


def test_period_of_worked_example():
    operand = "0.7071067811865476,0.5,-0.35355339059327373,0.35355339059327373"
    code, body = run_json(["--params", "1,1,1", "period", operand])
    assert code == 0
    assert body["result"]["period"] == 8


def test_params_and_family_agree():
    _, by_params = run_json(["--params", "1,1,-1", "norm", "0,0,1,0"])
    _, by_family = run_json(["--family", "split", "norm", "0,0,1,0"])
    assert by_params == by_family
    assert by_params["result"]["scalar"] == -1.0


def test_two_param_family():
    code, body = run_json(["--family", "2param:2,3", "norm", "0,1,0,0"])
    assert code == 0
    assert body["result"]["scalar"] == 2.0  # l1*l2 = 1*2


def test_scale_and_option_ops():
    code, body = run_json(["--params", "1,1,1", "scale", "2.5", "1,0,0,2"])
    assert code == 0
    assert body["result"]["quat"] == [2.5, 0.0, 0.0, 5.0]


# Every op with a gate that --tol relaxes, with an operand whose norm or
# f(v, v) misses one by 1e-8 or 2e-8, just outside the default gate.
FUZZY_QUAT = "-0.50000001,0.5,0.5,0.5"
FUZZY_AXIS = "1.00000001,0,0"
TOLERANCE_CASES = {
    "matrix-pow": [FUZZY_QUAT, "--n", "2"],
    "roots": [FUZZY_QUAT, "--n", "2"],
    "period": [FUZZY_QUAT],
    "exp": [FUZZY_AXIS, "0.5"],
    "exp-matrix": [FUZZY_AXIS, "0.5"],
    "rodrigues": [FUZZY_AXIS, "0.5"],
}


def test_tolerance_cases_cover_every_op_that_takes_one():
    assert {name for name, spec in OPS.items() if spec.tol} == set(TOLERANCE_CASES)


def test_tolerance_override_flows_through():
    code, out, err = run(["--params", "1,1,1", "matrix-pow", FUZZY_QUAT, "--n", "2"])
    assert code == 1
    assert json.loads(out)["code"] == "non_unit"
    code, body = run_json(["--params", "1,1,1", "matrix-pow", FUZZY_QUAT, "--n", "2",
                           "--tol", "1e-6"])
    assert code == 0
    assert "mat4" in body["result"]


@pytest.mark.parametrize("op", sorted(TOLERANCE_CASES))
def test_tolerance_override_flows_through_every_op(op):
    argv = ["--params", "1,1,1", op, *TOLERANCE_CASES[op]]
    code, out, err = run(argv)
    assert code == 1
    assert json.loads(out)["code"] in ("non_unit", "not_unit_vector")
    code, body = run_json(argv + ["--tol", "1e-6"])
    assert code == 0
    assert body["status"] == "ok"


# --- every result kind round-trips ------------------------------------------------

RESULT_KIND_CASES = [
    (["--params", "1,1,1", "mul", "1,2,3,4", "0,1,0,0"], "quat"),
    (["--params", "1,1,1", "wedge", "1,0,0", "0,1,0"], "vector"),
    (["--params", "1,1,1", "norm", "1,2,3,4"], "scalar"),
    (["--params", "1,1,1", "compact"], "bool"),
    (["--params", "1,1,1", "adjoint", "1,0,0,0"], "mat3"),
    (["--params", "1,1,1", "left-matrix", "1,2,3,4"], "mat4"),
    (["--params", "1,1,1", "base-matrices"], "mat4_list"),
    (["--params", "1,1,1", "roots", "-0.5,0.5,0.5,0.5", "--n", "2"], "roots"),
    (["--params", "1,1,1", "polar", "-0.5,0.5,0.5,0.5"], "polar"),
    (["--params", "1,1,1", "period", "-0.5,0.5,0.5,0.5"], "period"),
    (["--params", "1,1,1", "eigenvalues", "1,2,3,4"], "complex_pair"),
    (["--params", "1,1,1", "eigenvectors", "0,1,1,1"], "eigenvectors"),
    (["--params", "1,1,1", "char-poly", "1,2,3,4"], "char_poly"),
]


@pytest.mark.parametrize("argv,kind", RESULT_KIND_CASES)
def test_result_kinds_and_round_trip(argv, kind):
    code, out, err = run(argv)
    assert code == 0, err
    body = json.loads(out)
    assert body["status"] == "ok"
    assert kind in body["result"]
    # serialization round-trip: parse -> dump -> parse is the identity
    again = json.dumps(body, separators=(",", ":"))
    assert json.loads(again) == body


def test_polar_of_scalar_serializes_null_axis():
    code, body = run_json(["--params", "1,1,1", "polar", "-3,0,0,0"])
    assert code == 0
    polar = body["result"]["polar"]
    assert polar["axis"] is None
    assert polar["theta"] == pytest.approx(math.pi)
    assert polar["modulus"] == 3.0


def test_no_period_serializes_null():
    # angle of 1 radian does not divide the full turn
    c, s = math.cos(1.0), math.sin(1.0)
    operand = f"{c!r},{s!r},0,0"
    code, body = run_json(["--params", "1,1,1", "period", operand])
    assert code == 0
    assert body["result"]["period"] is None


def test_deterministic_output():
    argv = ["--params", "1,1,1", "eigenvectors", "0.3,1.25,-0.5,2.125"]
    first = run(argv)
    second = run(argv)
    assert first == second


# --- domain error mapping -----------------------------------------------------------

ERROR_CASES = [
    (["--params", "1,1,-1", "inverse", "1,0,1,0"], "zero_norm"),
    (["--params", "1,1,-1", "polar", "2,0,0,1"], "non_elliptic"),
    (["--params", "1,1,1", "mul", "1,0,0,0", "0,1,0,0@2,3,5"], "param_mismatch"),
    (["--params", "1,1,1", "eigenvectors", "1,2,0,0"], "degenerate_axis"),
    (["--params", "1,1,1", "matrix-pow", "2,0,0,0", "--n", "2"], "non_unit"),
    (["--params", "1,1,-1", "rodrigues", "1,0,0", "0.5"], "not_positive_family"),
    (["--params", "1,1,1", "exp", "2,0,0", "0.5"], "not_unit_vector"),
    (["--params", "1,1,1", "scaled-pow",
      f"{math.cos(1.0)!r},{math.sin(1.0)!r},0,0", "--n", "3", "--s", "1"], "no_period"),
    (["--params", "1,1,1", "scaled-pow", "-0.5,0.5,0.5,0.5", "--n", "4", "--s", "2"],
     "congruence_violation"),
]


@pytest.mark.parametrize("argv,expected_code", ERROR_CASES)
def test_domain_errors_map_to_stable_codes(argv, expected_code):
    code, out, err = run(argv)
    assert code == 1
    body = json.loads(out)
    assert body["status"] == "error"
    assert body["code"] == expected_code
    assert body["message"]


def test_every_library_error_code_is_cli_reachable():
    covered = {expected for _, expected in ERROR_CASES}
    from gq3 import errors
    all_codes = {
        cls.code
        for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, errors.AlgebraError)
        and cls is not errors.AlgebraError
    }
    assert covered == all_codes


# --- malformed input --------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["--params", "1,1,1", "mul", "1,0,0", "0,1,0,0"],       # wrong arity literal
    ["--params", "1,1,1", "mul", "1,0,0,0"],                # missing operand
    ["--params", "1,1,1", "mul", "1,0,x,0", "0,1,0,0"],     # non-numeric
    ["--params", "1,1,1", "mul", "nan,0,0,0", "0,1,0,0"],   # parses but not finite
    ["--params", "1,1", "mul", "1,0,0,0", "0,1,0,0"],       # bad triple
    ["--params", "1,inf,1", "norm", "1,0,0,0"],             # non-finite parameter
    ["--params", "1,1,1", "frobnicate", "1,0,0,0"],         # unknown op
    ["mul", "1,0,0,0", "0,1,0,0"],                          # no algebra chosen
    ["--params", "1,1,1", "--family", "split", "norm", "1,0,0,0"],  # both given
    ["--params", "1,1,1", "pow", "1,0,0,0", "--n", "two"],  # non-integer n
    ["--params", "1,1,1", "pow", "-0.5,0.5,0.5,0.5"],       # missing required n
    ["--params", "1,1,1", "roots", "-0.5,0.5,0.5,0.5", "--n", "0"],  # degree < 1
    ["--params", "1,1,1", "exp", "1,0,0", "nan"],           # non-finite scalars
    ["--params", "1,1,1", "scale", "nan", "1,0,0,0"],
    ["--params", "1,1,1", "rodrigues", "1,0,0", "inf"],
    ["--params", "1,1,1", "exp", "1,0,0", "-inf"],
    ["--params", "1,1,1", "matrix-pow", "2,0,0,1", "--n", "2", "--tol", "nan"],  # bad --tol
    ["--params", "1,1,1", "exp", "2,0,0", "0.5", "--tol", "inf"],
    ["--params", "1,1,1", "period", "-0.5,0.5,0.5,0.5", "--tol", "-1"],
    ["--params", "1,1,1", "roots", "-0.5,0.5,0.5,0.5", "--n", "2", "--tol", "x"],
    ["--params", "1,1,1", "add", "1,0,0,0", "0,1,0,0", "--tol", "1e-6"],  # op has no gate
    ["--params", "1,1,1", "scaled-pow", "-0.5,0.5,0.5,0.5", "--n", "4", "--s", "1",
     "--tol", "1e-6"],
    ["--unknown-flag"],
])
def test_malformed_input_exits_two_without_stdout(argv):
    code, out, err = run(argv)
    assert code == 2
    assert out == ""
    assert err


def test_overflowing_result_reports_instead_of_crashing():
    # finite operands whose product leaves double range
    big = "1e200,0,0,0"
    code, out, err = run(["--params", "1,1,1", "mul", big, big])
    assert code == 1
    body = json.loads(out)
    assert body["status"] == "error"
    assert body["code"] == "non_finite"


def test_help_is_available():
    code, out, err = run(["--help"])
    assert code == 0
    assert "usage" in err.lower()
    assert out == ""


# --- batch mode ---------------------------------------------------------------------------

def test_batch_empty_file(tmp_path):
    path = tmp_path / "empty.ndjson"
    path.write_text("")
    code, out, err = run(["batch", str(path)])
    assert code == 0
    assert out == ""


def test_batch_valid_requests_in_order(tmp_path):
    requests = [
        {"params": [1, 1, 1], "op": "mul", "operands": [[1, 0, 0, 0], [0, 1, 0, 0]]},
        {"params": "split", "op": "norm", "operands": [[0, 0, 1, 0]]},
        {"params": [1, 1, 1], "op": "pow", "operands": [[-0.5, 0.5, 0.5, 0.5]],
         "options": {"n": 3}},
    ]
    path = tmp_path / "ok.ndjson"
    path.write_text("\n".join(json.dumps(r) for r in requests) + "\n")
    code, out, err = run(["batch", str(path)])
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert len(lines) == 3
    assert lines[0]["result"]["quat"] == [0.0, 1.0, 0.0, 0.0]
    assert lines[1]["result"]["scalar"] == -1.0
    assert lines[2]["result"]["quat"] == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=1e-10)


def test_batch_mixed_failures_preserve_order(tmp_path):
    requests = [
        '{"params": [1, 1, 1], "op": "norm", "operands": [[1, 0, 0, 0]]}',
        'this is not json',
        '{"params": [1, 1, -1], "op": "inverse", "operands": [[1, 0, 1, 0]]}',
        '{"params": [1, 1, 1], "op": "nosuch", "operands": []}',
        '{"params": [1, 1, 1], "op": "conj", "operands": [[1, 2, 3, 4]]}',
    ]
    path = tmp_path / "mixed.ndjson"
    path.write_text("\n".join(requests) + "\n")
    code, out, err = run(["batch", str(path)])
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert [l["status"] for l in lines] == ["ok", "error", "error", "error", "ok"]
    assert lines[1]["code"] == "bad_request"
    assert lines[2]["code"] == "zero_norm"
    assert lines[3]["code"] == "bad_request"
    assert lines[4]["result"]["quat"] == [1.0, -2.0, -3.0, -4.0]


def test_batch_operand_level_params(tmp_path):
    request = {"params": [1, 1, 1], "op": "mul", "operands": [
        [1, 0, 0, 0],
        {"components": [0, 1, 0, 0], "params": [2, 3, 5]},
    ]}
    path = tmp_path / "mismatch.ndjson"
    path.write_text(json.dumps(request) + "\n")
    code, out, err = run(["batch", str(path)])
    assert code == 0
    body = json.loads(out)
    assert body["status"] == "error"
    assert body["code"] == "param_mismatch"


def test_batch_unreadable_file():
    code, out, err = run(["batch", "/nonexistent/requests.ndjson"])
    assert code == 2
    assert out == ""
    assert err


def test_batch_rejects_global_params(tmp_path):
    path = tmp_path / "x.ndjson"
    path.write_text("")
    code, out, err = run(["--params", "1,1,1", "batch", str(path)])
    assert code == 2


# One request per error code; every op in OPS gets a well-formed line besides.
BATCH_ERROR_REQUESTS = [
    {"params": [1, 1, -1], "op": "inverse", "operands": ["1,0,1,0"]},
    {"params": [1, 1, -1], "op": "polar", "operands": ["2,0,0,1"]},
    {"params": [1, 1, 1], "op": "mul", "operands": ["1,0,0,0", "0,1,0,0@2,3,5"]},
    {"params": [1, 1, 1], "op": "eigenvectors", "operands": ["1,2,0,0"]},
    {"params": [1, 1, 1], "op": "matrix-pow", "operands": ["2,0,0,0"], "options": {"n": 2}},
    {"params": [1, 1, -1], "op": "rodrigues", "operands": ["1,0,0", 0.5]},
    {"params": [1, 1, 1], "op": "exp", "operands": ["2,0,0", 0.5]},
    {"params": [1, 1, 1], "op": "scaled-pow",
     "operands": [[math.cos(1.0), math.sin(1.0), 0, 0]], "options": {"n": 3, "s": 1}},
    {"params": [1, 1, 1], "op": "scaled-pow", "operands": ["-0.5,0.5,0.5,0.5"],
     "options": {"n": 4, "s": 2}},
    {"params": [1, 1, 1], "op": "mul", "operands": ["1e200,0,0,0", "1e200,0,0,0"]},
    {"params": [1, 1, 1], "op": "frobnicate", "operands": []},
]
_WELL_FORMED_OPERAND = {"quat": [-0.5, 0.5, 0.5, 0.5], "vec": [0.0, 0.0, 1.0], "scalar": 0.5}


def test_batch_bytes_equal_per_request_encoding(tmp_path):
    requests = [
        {"params": "hamilton", "op": name,
         "operands": [_WELL_FORMED_OPERAND[kind] for kind in spec.operands],
         "options": {"n": 4, "s": 1}}
        for name, spec in OPS.items()
    ]
    requests += BATCH_ERROR_REQUESTS
    requests += [
        {"params": [1, 1, 1], "op": "norm", "operands": ["1e200,0,0,0"]},
        {"params": "split", "op": "conj", "operands": [[-0.0, 1.5, -0.0, 2.0]]},
    ]
    path = tmp_path / "all.ndjson"
    path.write_text("\n".join(json.dumps(r) for r in requests) + "\n")

    want = io.StringIO()
    responses = []
    for request in requests:
        response, _ = execute_request(request)
        responses.append(response)
        json.dump(response, want, separators=(",", ":"))
        want.write("\n")

    code, out, err = run(["batch", str(path)])
    assert code == 0
    assert out == want.getvalue()
    # the file covers what it claims to
    assert all(r["status"] == "ok" for r in responses[:len(OPS)])
    codes = {r["code"] for r in responses if r["status"] == "error"}
    assert codes == {c for _, c in ERROR_CASES} | {"non_finite", "bad_request"}
    assert "Infinity" in out.splitlines()[-2]
    assert "-0.0" in out.splitlines()[-1]


@pytest.mark.parametrize("params,rows", [
    ("quarter", "[[0.0,0.0,0.0],[0.0,0.0,0.0],[0.0,0.0,0.0]]"),
    ("semi", "[[-8.0,0.0,0.0],[0.0,0.0,0.0],[0.0,0.0,0.0]]"),
])
def test_killing_matrix_prints_positive_zeros(params, rows):
    code, out, err = run(["--family", params, "killing-matrix"])
    assert code == 0
    assert out == '{"status":"ok","result":{"mat3":' + rows + '}}\n'


# --- request executor details ----------------------------------------------------------------

def test_execute_request_rejects_non_object():
    response, code = execute_request(["not", "a", "dict"])
    assert code == 2
    assert response["code"] == "bad_request"


def test_execute_request_missing_params():
    response, code = execute_request({"op": "norm", "operands": [[1, 0, 0, 0]]})
    assert code == 2


@pytest.mark.parametrize("request_", [
    {"op": "exp", "operands": [[1, 0, 0], math.nan]},         # what a batch NaN decodes to
    {"op": "exp-matrix", "operands": [[1, 0, 0], -math.inf]},
    {"op": "norm", "operands": [[10 ** 400, 0, 0, 0]]},        # no float holds these
    {"op": "exp", "operands": [[1, 0, 0], 10 ** 400]},
    {"op": "exp", "operands": [[1, 0, 0], 0.5], "options": {"tolerance": math.nan}},
    {"op": "roots", "operands": [[0.6, 0.8, 0, 0]], "options": {"n": 2, "tolerance": -1e-9}},
    {"op": "norm", "operands": [[1, 0, 0, 0]], "options": {"tolerance": 1e-6}},
])
def test_execute_request_rejects_bad_numbers(request_):
    response, code = execute_request({"params": [1, 1, 1], **request_})
    assert code == 2
    assert response["code"] == "bad_request"


def test_execute_request_ignores_unused_integer_options():
    # n and s only matter to ops that take them, in single-shot and batch mode.
    request = {"params": "hamilton", "op": "period", "operands": [[-0.5, 0.5, 0.5, 0.5]],
               "options": {"n": 4, "s": "x"}}
    assert execute_request(request) == ({"status": "ok", "result": {"period": 3}}, 0)


def test_batch_survives_an_integer_too_long_to_read(tmp_path):
    path = tmp_path / "long.ndjson"
    line = '{"params": "hamilton", "op": "norm", "operands": [[%s, 0, 0, 0]]}\n'
    path.write_text(line % ("1" + "0" * 5000) + line % "2")
    code, out, err = run(["batch", str(path)])
    assert code == 0
    first, second = (json.loads(line) for line in out.splitlines())
    assert first["code"] == "bad_request"
    assert second["result"] == {"scalar": 4.0}


def test_registry_is_well_formed():
    for name, op in OPS.items():
        assert name == name.lower()
        assert op.summary
        assert all(kind in ("quat", "vec", "scalar") for kind in op.operands)

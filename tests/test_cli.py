"""Command-line front end: dispatch, JSON wire format, exit codes, batch mode."""

import importlib.util
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gq3 import ParamTriple, cli, errors
from gq3.cli import OPS, RequestError, _emit, execute_request, main, parse_params
from gq3.polar import MAX_ROOT_DEGREE
from helpers import EDGE_INTS, EDGE_QUATS, EDGE_SCALARS, EDGE_VECS

SRC = Path(__file__).resolve().parents[1] / "src"


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
    code, out, err = run(["--params", "hamilton", "mul", "1,0,0,0", "0,1,0,0"])
    assert code == 0
    assert out == '{"status":"ok","result":{"quat":[0.0,1.0,0.0,0.0]}}\n'


def _readme_examples() -> list[tuple[list[str], str, int]]:
    """(argv, stdout, exit code) of each "$ gq3 ..." line in README.md.

    The line after the command is its stdout; "# exits N" gives a nonzero
    exit code.
    """
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8").splitlines()
    examples = []
    for command, printed in zip(lines, lines[1:]):
        if command.startswith("$ gq3 "):
            exits = re.search(r"# exits (\d+)", command)
            examples.append((shlex.split(command[2:], comments=True)[1:], printed + "\n",
                             int(exits.group(1)) if exits else 0))
    return examples


def test_readme_examples_print_what_they_show():
    examples = _readme_examples()
    assert len(examples) >= 3
    for argv, printed, exit_code in examples:
        assert run(argv)[:2] == (exit_code, printed), argv


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
    _, by_triple = run_json(["--params", "1,1,-1", "norm", "0,0,1,0"])
    _, by_name = run_json(["--params", "split", "norm", "0,0,1,0"])
    assert by_triple == by_name
    assert by_triple["result"]["scalar"] == -1.0


def test_family_is_not_an_option():
    # --params takes a family name; there is no second flag for it.
    code, out, err = run(["--family", "hamilton", "norm", "1,0,0,0"])
    assert (code, out) == (2, "")
    assert err.startswith("gq3: unknown option '--family'\n")


def test_two_param_family():
    code, body = run_json(["--params", "2param:2,3", "norm", "0,1,0,0"])
    assert code == 0
    assert body["result"]["scalar"] == 2.0  # l1*l2 = 1*2


def test_scale_and_option_ops():
    code, body = run_json(["--params", "1,1,1", "scale", "2.5", "1,0,0,2"])
    assert code == 0
    assert body["result"]["quat"] == [2.5, 0.0, 0.0, 5.0]


# The unit gates are fixed; operands typed with ten significant digits pass them, four do not.
@pytest.mark.parametrize("argv,code,answer", [
    (["matrix-pow", "0.7071067812,0.7071067812,0,0", "--n", "2"], 0, "ok"),
    (["exp", "0.5773502692,0.5773502692,0.5773502692", "0.5"], 0, "ok"),
    (["matrix-pow", "0.7071,0.7071,0,0", "--n", "2"], 1, "non_unit"),
])
def test_ten_digit_operands_pass_the_fixed_unit_gates(argv, code, answer):
    exit_code, body = run_json(["--params", "hamilton", *argv])
    assert (exit_code, body.get("code", body["status"])) == (code, answer)


def test_tol_is_not_an_option():
    code, out, err = run(["--params", "hamilton", "matrix-pow", "2,0,0,1", "--n", "2",
                          "--tol", "1e-6"])
    assert (code, out) == (2, "")
    assert err.startswith("gq3: unknown option '--tol'\n")


def _well_formed(op: str) -> dict:
    # A request for ``op`` that passes the request checks: unit operands, both integer options.
    literal = {"quat": [-0.5, 0.5, 0.5, 0.5], "vec": [1, 0, 0], "scalar": 0.5}
    return {"params": "hamilton", "op": op, "options": {"n": 2, "s": 1},
            "operands": [literal[kind] for kind in OPS[op].operands]}


@pytest.mark.parametrize("op", sorted(OPS))
def test_every_op_refuses_a_tolerance(op):
    request = _well_formed(op)
    refused = {**request, "options": {**request["options"], "tolerance": 1e-6}}
    assert execute_request(refused) == (
        {"status": "error", "code": "bad_request",
         "message": f"operation {op!r} takes no tolerance"}, 2)
    absent = {**request, "options": {**request["options"], "tolerance": None}}
    assert execute_request(absent) == execute_request(request)


@pytest.mark.parametrize("op,operand,flag,exit_code", [
    ("matrix-pow", "2,0,0,0", "2.0", 1),  # non_unit: n = 2.0 is taken as 2
    ("pow", "-0.5,0.5,0.5,0.5", "1e3", 0),
    ("pow", "-0.5,0.5,0.5,0.5", "2.5", 2),  # not an integer
])
def test_option_flags_are_read_as_a_batch_line_carries_them(op, operand, flag, exit_code):
    code, out, err = run(["--params", "hamilton", op, operand, "--n", flag])
    response, batch_code = execute_request(
        {"params": "hamilton", "op": op, "operands": [operand], "options": {"n": float(flag)}})
    assert code == batch_code == exit_code
    if code == 2:
        assert (out, err) == ("", f"gq3: {response['message']}\n")
    else:
        line = io.StringIO()
        _emit(response, line)
        assert out == line.getvalue()


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
    # the eigenvector denominator overflows (it used to be called degenerate)
    (["--params", "1,1,1", "eigenvectors", "1e200,1e200,1e200,0"], "non_finite"),
    (["--params", "1,1,1", "pow", "2,1,0,0", "--n", "100000"], "non_finite"),  # 5**50000
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
    ["--params", "1,1,1", "--family", "split", "norm", "1,0,0,0"],  # no --family flag
    ["--params", "1,1,1", "pow", "1,0,0,0", "--n", "two"],  # non-integer n
    ["--params", "1,1,1", "pow", "-0.5,0.5,0.5,0.5"],       # missing required n
    ["--params", "1,1,1", "roots", "-0.5,0.5,0.5,0.5", "--n", "0"],  # degree < 1
    ["--params", "1,1,1", "exp", "1,0,0", "nan"],           # non-finite scalars
    ["--params", "1,1,1", "scale", "nan", "1,0,0,0"],
    ["--params", "1,1,1", "rodrigues", "1,0,0", "inf"],
    ["--params", "1,1,1", "exp", "1,0,0", "-inf"],
    ["--params", "1,1,1", "matrix-pow", "2,0,0,1", "--n", "2", "--tol", "nan"],  # no --tol flag
    ["--params", "1,1,1", "exp", "2,0,0", "0.5", "--tol", "inf"],
    ["--params", "1,1,1", "period", "-0.5,0.5,0.5,0.5", "--tol", "-1"],
    ["--params", "1,1,1", "roots", "-0.5,0.5,0.5,0.5", "--n", "2", "--tol", "x"],
    ["--params", "1,1,1", "add", "1,0,0,0", "0,1,0,0", "--tol", "1e-6"],
    ["--params", "1,1,1", "scaled-pow", "-0.5,0.5,0.5,0.5", "--n", "4", "--s", "1",
     "--tol", "1e-6"],
    ["--unknown-flag"],
    ["--params", "1,1,1", "roots", "-0.5,0.5,0.5,0.5", "--n", str(MAX_ROOT_DEGREE + 1)],
    ["--params", "1,1,1", "pow", "-0.5,0.5,0.5,0.5", "--n"],  # flag without its value
    ["batch"],                                              # batch needs one path
    ["batch", "a", "b"],
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


def _strict_json(text: str):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("op,operands", [
    ("norm", ["1e200,0,0,0"]),
    ("dot", ["1e200,0,0,0", "1e200,0,0,0"]),
    ("det", ["1e200,0,0,0"]),  # inf - inf in the cofactor expansion: NaN
    ("eigenvalues", ["1e200,1e200,0,0"]),
    ("char-poly", ["1e200,0,0,0"]),
    ("killing", ["1e200,0,0", "1e200,0,0"]),
    ("inverse", ["1e200,0,0,0"]),  # the norm's terms overflow: no evidence of a null input
    ("adjoint", ["1e200,0,0,0"]),
    ("polar", ["1e200,1e200,0,0"]),
])
def test_overflowing_number_results_are_non_finite_errors(op, operands):
    code, out, err = run(["--params", "1,1,1", op, *operands])
    assert code == 1
    assert _strict_json(out)["code"] == "non_finite"


def _readme_stable_codes() -> set[str]:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listing = re.search(r"Stable codes:(.*?)\.\s", text, re.S).group(1)
    return set(re.findall(r"`([a-z_]+)`", listing))


STABLE_CODES = _readme_stable_codes()


def test_readme_stable_codes_are_the_error_codes():
    classes = [getattr(errors, name) for name in errors.__all__]
    codes = {cls.code for cls in classes if cls is not errors.AlgebraError}
    assert STABLE_CODES == codes | {"bad_request"}


_number = st.floats(-1e308, 1e308)  # subnormals included
_OPERANDS = {
    "quat": st.one_of(st.sampled_from(EDGE_QUATS), st.lists(_number, min_size=4, max_size=4)),
    "vec": st.one_of(st.sampled_from(EDGE_VECS), st.lists(_number, min_size=3, max_size=3)),
    "scalar": st.one_of(st.sampled_from(EDGE_SCALARS), _number),
}
_INTS = st.one_of(st.sampled_from(EDGE_INTS), st.integers(-9, 9))


@st.composite
def _requests(draw):
    op = draw(st.sampled_from(sorted(OPS)))
    return {"params": draw(st.sampled_from(["hamilton", "split", "quarter", "2,3,5",
                                            [1.0, 0.7, -1.3]])),
            "op": op,
            "operands": [draw(_OPERANDS[kind]) for kind in OPS[op].operands],
            "options": {"n": draw(_INTS), "s": draw(_INTS)}}


@settings(max_examples=700, deadline=None)
@given(_requests())
@example({"params": "hamilton", "op": "matrix-pow", "operands": [[0.6, 0.8, 0, 0]],
          "options": {"n": 10**400}})
@example({"params": "hamilton", "op": "pow", "operands": [[-0.6, 0.8, 0, 0]],
          "options": {"n": 10**308}})
@example({"params": "hamilton", "op": "scaled-pow", "operands": [[1e150, 1e-160, 0, 0]],
          "options": {"n": 3, "s": 1}})
@example({"params": "hamilton", "op": "adjoint", "operands": [[1e200, 0, 0, 0]]})
@example({"params": "hamilton", "op": "scaled-pow", "operands": [[0, 1, 0, 0]],
          "options": {"n": 10**4300 - 1, "s": -1}})  # n - s has 4,301 digits
def test_every_request_gets_one_strict_json_answer_with_a_documented_code(req):
    # execute_request types every failure itself; only _emit's backstop is left behind it.
    response, code = execute_request(req)
    out = io.StringIO()
    _emit(response, out)
    body = _strict_json(out.getvalue())
    assert (body["status"] == "ok") == (code == 0)
    if code:
        assert body["code"] in STABLE_CODES


def test_emit_writes_strict_json_for_an_unchecked_infinity():
    out = io.StringIO()
    _emit({"status": "ok", "result": {"scalar": math.inf}}, out)
    assert out.getvalue().endswith("\n")
    assert _strict_json(out.getvalue())["code"] == "non_finite"


def test_emit_writes_the_same_bytes_without_the_c_accelerator(monkeypatch):
    # _emit joins the chunks of one C encoder made at import; where the interpreter has
    # none, it falls back to JSONEncoder.encode with the same settings.
    responses = [execute_request(case)[0] for case in (
        {"params": "2,3,5", "op": "roots", "operands": [[0.6, 0.8, 0, 0]], "options": {"n": 3}},
        {"params": "hamilton", "op": "eigenvectors", "operands": [[1, 2, 3, 4]]},
        {"params": "hamilton", "op": "\u00e9\n\"x\"", "operands": []})]
    responses.append({"status": "ok", "result": {"scalar": -math.inf}})
    assert (cli._c_encode is None) == (json.encoder.c_make_encoder is None)
    texts = []
    for c_encode in (cli._c_encode, None):
        monkeypatch.setattr(cli, "_c_encode", c_encode)
        out = io.StringIO()
        for response in responses:
            _emit(response, out)
        texts.append(out.getvalue())
    assert cli._c_encode is None and texts[0] == texts[1]
    assert texts[0].count("\n") == len(responses) and "\\u00e9" in texts[0]


@pytest.mark.parametrize("op,operands,answer", [
    ("mul", [[1, True, 0, 0], [2, 0, 0, 0]], '"quat":[2.0,2.0,0.0,0.0]'),
    ("wedge", [[1, 0, 0], [0, 1, 0]], '"vector":[0.0,0.0,1.0]'),
    ("norm", [[1, "a", 0, 0]],
     '"bad quaternion [1, \'a\', 0, 0]: could not convert string to float: \'a\'"'),
    ("bilinear", [[1, 0, 0], [None, 0, 0]],
     '"bad vector [None, 0, 0]: float() argument must be a string or a real number, '
     'not \'NoneType\'"'),
])
def test_batch_components_are_copied_through_float(op, operands, answer):
    # JSON integers and booleans become floats; any other component is a bad_request.
    out = io.StringIO()
    _emit(execute_request({"params": "hamilton", "op": op, "operands": operands})[0], out)
    assert answer in out.getvalue()


def test_help_is_available():
    code, out, err = run(["--help"])
    assert code == 0
    assert "usage" in err.lower()
    assert out == ""


def test_help_names_every_op():
    assert run(["--help"])[2].partition("\nOperations:\n")[2].split() == list(OPS)


@pytest.mark.parametrize("argv,exit_code", [
    (["--help", "mul"], 0),  # help wins over an op
    ([], 2),                 # no op at all
])
def test_help_with_an_op_and_a_bare_call_print_the_usage(argv, exit_code):
    assert run(argv) == (exit_code, "", cli._USAGE)


def test_a_flag_without_its_value_prints_the_usage():
    assert run(["--params", "hamilton", "pow", "-0.5,0.5,0.5,0.5", "--n"]) == (
        2, "", "gq3: --n needs a value\n" + cli._USAGE)


@pytest.mark.parametrize("argv,message", [
    (["--params", "hamilton", "pow", "-0.5,0.5,0.5,0.5", "--n", "--s"],
     "option --n must be an integer, got '--s'"),
    (["--params", "--n", "norm", "1,0,0,0"], "unknown family '--n'"),
])
def test_a_flag_value_that_begins_with_two_dashes_is_taken_as_is(argv, message):
    assert run(argv) == (2, "", f"gq3: {message}\n")


def test_the_last_value_of_a_repeated_flag_wins():
    twice = run(["--params", "split", "--n", "2", "pow", "--params", "hamilton",
                 "-0.5,0.5,0.5,0.5", "--n", "3"])
    assert twice == run(["--params", "hamilton", "pow", "-0.5,0.5,0.5,0.5", "--n", "3"])
    assert twice[0] == 0


@pytest.mark.parametrize("op", ["mull", "x" * 100_000], ids=["mull", "100000-characters"])
def test_single_shot_answers_an_unknown_op_as_batch_does(op):
    request = {"params": "hamilton", "op": op, "operands": [[1, 0, 0, 0]]}
    response, code = execute_request(request)
    assert (code, response["code"]) == (2, "bad_request")
    assert run(["--params", "hamilton", op, "1,0,0,0"]) == (2, "", f"gq3: {response['message']}\n")


@pytest.mark.parametrize("argv,message,usage", [
    (["--params", "hamilton", "x" * 100_000, "1,0,0,0"], "unknown operation 'xxx", False),
    (["--params", "hamilton", "norm", "--" + "x" * 99_998, "1,0,0,0"], "unknown option '--xxx",
     True),
    (["--params", "x" * 100_000, "norm", "1,0,0,0"], "unknown family 'xxx", False),
    (["batch", "x" * 100_000], "cannot read batch file: ", False),
])
def test_every_stderr_line_is_bounded(argv, message, usage):
    # A diagnostic echoing a long argv token keeps the first _MESSAGE_MAX characters of its
    # message, then the message's full length, as a batch error response does.
    code, out, err = run(argv)
    assert (code, out) == (2, "")
    first, *rest = err.splitlines()
    assert first.startswith(f"gq3: {message}")
    assert re.fullmatch(r"\.\.\. \(\d{3},\d{3} characters\)", first[5 + cli._MESSAGE_MAX:])
    assert rest == (cli._USAGE.splitlines() if usage else [])


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_among_the_operands_prints_the_usage(flag):
    assert run(["--params", "hamilton", "mul", "1,0,0,0", flag, "0,1,0,0"]) == (
        0, "", cli._USAGE)


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


def test_an_operand_over_an_equal_triple_is_operated_on():
    # "1,1,1" parses to a triple equal to, but not the same object as, hamilton's.
    request = {"params": "hamilton", "op": "mul", "operands": [
        [1, 2, 3, 4], {"components": [1, 0, 0, 0], "params": "1,1,1"}]}
    out = io.StringIO()
    _emit(execute_request(request)[0], out)
    assert out.getvalue() == '{"status":"ok","result":{"quat":[1.0,2.0,3.0,4.0]}}\n'


def test_batch_unreadable_file():
    code, out, err = run(["batch", "/nonexistent/requests.ndjson"])
    assert code == 2
    assert out == ""
    assert err


def test_batch_reads_standard_input(tmp_path):
    text = "".join(json.dumps(r) + "\n" for r in BATCH_ERROR_REQUESTS) + "not json\n\n"
    path = tmp_path / "requests.ndjson"
    path.write_text(text)
    _, from_file, _ = run(["batch", str(path)])
    stdin, out, err = io.StringIO(text), io.StringIO(), io.StringIO()
    code = main(["batch", "-"], stdin=stdin, stdout=out, stderr=err)
    assert code == 0
    assert out.getvalue() == from_file
    assert len(from_file.splitlines()) == len(BATCH_ERROR_REQUESTS) + 1
    assert not stdin.closed


def test_batch_into_a_closed_pipe_exits_quietly(tmp_path):
    # gq3 batch FILE | head -1, on far more output than a pipe holds: the reader
    # takes one line and closes its end while the batch is still writing.
    line = json.dumps({"params": [1, 1, 1], "op": "left-matrix", "operands": ["1,2,3,4"]})
    path = tmp_path / "large.ndjson"
    path.write_text((line + "\n") * 20_000)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    with subprocess.Popen([sys.executable, "-B", "-m", "gq3.cli", "batch", str(path)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            code = proc.wait(timeout=60)
            err = proc.stderr.read().decode()
        finally:
            proc.kill()
    assert json.loads(first)["status"] == "ok"
    assert err == ""  # no Traceback, no "Exception ignored" at exit
    assert code == cli.EXIT_DOMAIN_ERROR  # README: 1, also when stdout closes early


def test_batch_rejects_global_params(tmp_path):
    path = tmp_path / "x.ndjson"
    path.write_text("")
    code, out, err = run(["--params", "1,1,1", "batch", str(path)])
    assert code == 2


@pytest.mark.parametrize("flag,value", [("--n", "3"), ("--s", "1"), ("--tol", "1e-6")])
def test_batch_refuses_single_shot_options(tmp_path, flag, value):
    # Each batch line carries its own options: a flag would be dropped without a word.
    # --tol is no flag at all, so it is refused as unknown.
    path = tmp_path / "x.ndjson"
    path.write_text('{"params": "hamilton", "op": "norm", "operands": [[1, 0, 0, 0]]}\n')
    code, out, err = run(["batch", str(path), flag, value])
    assert (code, out) == (2, "")
    assert err.startswith("gq3: unknown option '--tol'\n" if flag == "--tol" else
                          "gq3: batch requests carry their own params and options")


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
    # norm of 1e200 overflows: answered as an error, never as Infinity
    assert json.loads(out.splitlines()[-2])["code"] == "non_finite"
    assert "-0.0" in out.splitlines()[-1]


CLI_RESPONSES = Path(__file__).resolve().parent / "data" / "cli_responses.ndjson"


def test_cli_bytes_match_the_committed_responses(tmp_path):
    # tests/data/make_cli_responses.py wrote each request's response line and exit code.
    cases = [json.loads(line) for line in CLI_RESPONSES.read_text(encoding="utf-8").splitlines()]
    path = tmp_path / "requests.ndjson"
    path.write_text("".join(json.dumps(case["request"]) + "\n" for case in cases))
    code, out, err = run(["batch", str(path)])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == len(cases)
    for case, line in zip(cases, lines):
        assert (line, execute_request(case["request"])[1]) == (case["response"], case["exit"])
    ops = {case["request"].get("op") for case in cases if isinstance(case["request"], dict)}
    codes = {json.loads(case["response"]).get("code") for case in cases}
    assert set(OPS) <= ops
    assert STABLE_CODES - codes == {"no_period", "congruence_violation"}  # known after atan2


def test_generator_writes_the_committed_responses(tmp_path):
    spec = importlib.util.spec_from_file_location("make_cli_responses",
                                                  CLI_RESPONSES.with_name("make_cli_responses.py"))
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    generator.main(tmp_path / "responses.ndjson")
    assert (tmp_path / "responses.ndjson").read_bytes() == CLI_RESPONSES.read_bytes()


BATCH_DIGESTS = CLI_RESPONSES.with_name("batch_digests.json")


def _digests(path: Path) -> dict[str, str]:
    # "workload seed op" -> digest, so that a failure names the ops whose bytes moved.
    table = json.loads(path.read_text(encoding="utf-8"))
    return {f"{name} {seed} {op}": digest for name, seeds in table.items()
            for seed, ops in seeds.items() for op, digest in ops.items()}


def test_batch_answers_to_the_bench_workloads_match_the_committed_digests(tmp_path):
    # tests/data/make_batch_digests.py hashes each op's gq3 batch lines per workload and seed.
    spec = importlib.util.spec_from_file_location("make_batch_digests",
                                                  BATCH_DIGESTS.with_name("make_batch_digests.py"))
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    generator.main(tmp_path / "digests.json")
    assert _digests(tmp_path / "digests.json") == _digests(BATCH_DIGESTS)
    assert (tmp_path / "digests.json").read_bytes() == BATCH_DIGESTS.read_bytes()


@pytest.mark.parametrize("params,rows", [
    ("quarter", "[[0.0,0.0,0.0],[0.0,0.0,0.0],[0.0,0.0,0.0]]"),
    ("semi", "[[-8.0,0.0,0.0],[0.0,0.0,0.0],[0.0,0.0,0.0]]"),
])
def test_killing_matrix_prints_positive_zeros(params, rows):
    code, out, err = run(["--params", params, "killing-matrix"])
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
    # No op takes a tolerance, whatever its value.
    {"op": "exp", "operands": [[1, 0, 0], 0.5], "options": {"tolerance": math.nan}},
    {"op": "roots", "operands": [[0.6, 0.8, 0, 0]], "options": {"n": 2, "tolerance": -1e-9}},
    {"op": "norm", "operands": [[1, 0, 0, 0]], "options": {"tolerance": 1e-6}},
    {"op": "period", "operands": [[1.2, 0.3, 0, 0]], "options": {"tolerance": True}},
    {"op": "period", "operands": [[1.2, 0.3, 0, 0]], "options": {"tolerance": "0.6"}},
    {"op": "roots", "operands": [[0.6, 0.8, 0, 0]], "options": {"n": MAX_ROOT_DEGREE + 1}},
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


@pytest.mark.parametrize("request_,prefix", [
    ({"op": "norm", "operands": [[10**5000, 0, 0, 0]]}, "bad quaternion "),
    ({"op": "scale", "operands": [10**5000, [1, 0, 0, 0]]}, "expected a finite number, got "),
    ({"params": [10**5000, 1, 1], "op": "norm", "operands": [[1, 0, 0, 0]]}, "bad params "),
])
def test_an_integer_too_long_to_print_keeps_its_sites_message(request_, prefix):
    # Only a Python caller can send one: the JSON decoder refuses such a literal first.
    response, code = execute_request({"params": "hamilton", **request_})
    assert (code, response["code"]) == (2, "bad_request")
    assert response["message"].startswith(prefix)
    assert "Exceeds the limit" not in response["message"]


@pytest.mark.parametrize("request_,prefix,length", [
    ({"op": "norm", "operands": [["x" * 100_000, 0, 0, 0]]}, "bad quaternion ", 200_067),
    ({"op": "norm", "operands": [[0] * 100_000]}, "expected a quaternion ", 300_042),
    ({"op": "x" * 100_000}, "unknown operation 'xxx", 100_020),
    ({"params": "x" * 100_000, "op": "norm"}, "unknown family 'xxx", 100_017),
    ({"op": "roots", "operands": [[1, 0, 0, 0]], "options": {"n": 10**4299}},
     "root degree must be <= 1024, got 1000", 4_333),
])
def test_a_long_error_message_keeps_a_prefix_and_its_length(tmp_path, request_, prefix, length):
    # Every error message is cut at one place, however long the value it echoes.
    path = tmp_path / "long.ndjson"
    path.write_text(json.dumps({"params": "hamilton", **request_}) + "\n")
    code, out, err = run(["batch", str(path)])
    assert (code, err) == (0, "")
    assert out.endswith("\n") and len(out) < 1_200
    message = json.loads(out)["message"]
    assert message.startswith(prefix)
    assert message[cli._MESSAGE_MAX:] == f"... ({length:,} characters)"


_NORM_LINE = b'{"params": "hamilton", "op": "norm", "operands": [[%d, 0, 0, 0]]}'
UNREADABLE_LINES = {
    "invalid-utf8": b'{"params": "ham\xffilton", "op": "norm", "operands": [[1, 0, 0, 0]]}',
    "too-deep": b"[" * 100000 + b"]" * 100000,
}


@pytest.mark.parametrize("newline", [b"\n", b"\r\n"])
@pytest.mark.parametrize("name", sorted(UNREADABLE_LINES))
@pytest.mark.parametrize("source", ["path", "stdin"])
def test_batch_answers_an_unreadable_line_and_goes_on(tmp_path, source, name, newline):
    data = newline.join([_NORM_LINE % 2, UNREADABLE_LINES[name], _NORM_LINE % 3, b""])
    path = tmp_path / "requests.ndjson"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    if source == "path":
        code = main(["batch", str(path)], stdout=out, stderr=err)
    else:
        code = main(["batch", "-"], stdin=io.BytesIO(data), stdout=out, stderr=err)
    assert (code, err.getvalue()) == (0, "")
    first, middle, last = (json.loads(line) for line in out.getvalue().splitlines())
    assert first["result"] == {"scalar": 4.0} and last["result"] == {"scalar": 9.0}
    assert middle["code"] == "bad_request" and middle["message"].startswith("invalid JSON: ")


@pytest.mark.parametrize("length", [cli._LINE_MAX, cli._LINE_MAX + 1, 3 << 20])
@pytest.mark.parametrize("source", ["path", "stdin", "text-stdin"])
def test_a_batch_line_past_the_bound_is_answered_and_never_decoded(tmp_path, monkeypatch,
                                                                   source, length):
    # A norm request padded with spaces to ``length`` bytes: past cli._LINE_MAX it is refused
    # for its length alone, and the next line is still answered; the file ends with it again,
    # with no newline.  A text stream with no .buffer is bounded in characters.
    padded = (_NORM_LINE % 5)[:-1] + b" " * (length - len(_NORM_LINE % 5)) + b"}"
    data = b"\n".join([_NORM_LINE % 2, padded, _NORM_LINE % 3, padded])
    path = tmp_path / "requests.ndjson"
    path.write_bytes(data)
    decoded, loads = [], json.loads
    monkeypatch.setattr(cli.json, "loads", lambda text: decoded.append(len(text)) or loads(text))
    out, err = io.StringIO(), io.StringIO()
    if source == "path":
        code = main(["batch", str(path)], stdout=out, stderr=err)
    else:
        stdin = io.BytesIO(data) if source == "stdin" else io.StringIO(data.decode())
        code = main(["batch", "-"], stdin=stdin, stdout=out, stderr=err)
    assert (code, err.getvalue()) == (0, "")
    longest = max(decoded)
    first, middle, last, final = (json.loads(line) for line in out.getvalue().splitlines())
    assert first["result"] == {"scalar": 4.0} and last["result"] == {"scalar": 9.0}
    assert final == middle
    if length > cli._LINE_MAX:
        assert middle == {"status": "error", "code": "bad_request",
                          "message": f"line longer than {cli._LINE_MAX:,} bytes"}
        assert longest == len(_NORM_LINE % 2)
    else:
        assert middle["result"] == {"scalar": 25.0} and longest == length


def test_registry_is_well_formed():
    for name, op in OPS.items():
        assert name == name.lower()
        assert all(kind in ("quat", "vec", "scalar") for kind in op.operands)


# --- interned parameter triples ----------------------------------------------------------------

# Raw params that parse to equal triples, apart from the sign of a zero, and forms that
# parse to the same triple from different text.
INTERN_PARAMS = [[0.0, 1, 1], [-0.0, 1, 1], [1, 1, 1], [True, 1, 1], "hamilton", " Hamilton ",
                 "2param:1,2", "2,3,5", "0.0,1,1", "-0.0,1,1"]


def test_batch_with_interned_triples_matches_fresh_parses(tmp_path):
    requests = []
    for params in INTERN_PARAMS * 2:
        # with lambda1 = -0.0 every term is -0.0, so the sum keeps the sign
        requests.append({"params": params, "op": "bilinear", "operands": [[1, 1, -0.0], [1, 1, 1]]})
        requests.append({"params": params, "op": "mul", "operands": [[1, 2, 3, 4], [0.5, -1, 0, 2]]})
    # param_mismatch messages print both triples, signed zeros included
    requests.append({"params": [0.0, 1, 1], "op": "mul",
                     "operands": [[1, 0, 0, 0], {"components": [0, 1, 0, 0], "params": [-0.0, 2, 1]}]})
    requests.append({"params": [-0.0, 1, 1], "op": "add", "operands": [[1, 0, 0, 0], "0,1,0,0@0,2,1"]})
    path = tmp_path / "interned.ndjson"
    path.write_text("".join(json.dumps(r) + "\n" for r in requests))

    code, out, err = run(["batch", str(path)])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == len(requests)
    for request, line in zip(requests, lines):
        cli._TRIPLES.clear()
        response, _ = execute_request(request)
        assert line == json.dumps(response, separators=(",", ":"))
    assert json.loads(lines[0])["result"]["scalar"] == 0.0
    assert lines[2] == '{"status":"ok","result":{"scalar":-0.0}}'
    assert [json.loads(line).get("code") for line in lines[-2:]] == ["param_mismatch"] * 2
    assert "(-0.0, 2.0, 1.0)" in lines[-2] and "(-0.0, 1.0, 1.0)" in lines[-1]


def test_interned_triples_stay_within_their_bound():
    cli._TRIPLES.clear()
    for i in range(3 * cli._TRIPLES_MAX):
        assert parse_params([1, 2, i]) == ParamTriple(1.0, 2.0, float(i))
        assert parse_params(f"2,1,{i}") == ParamTriple(2.0, 1.0, float(i))
        assert len(cli._TRIPLES) <= cli._TRIPLES_MAX
    assert parse_params([1, 2, i]) is parse_params([1.0, 2.0, float(i)])
    assert parse_params(f"2,1,{i}") is parse_params(f"2,1,{i}")


def test_failed_params_parse_is_not_interned():
    cli._TRIPLES.clear()
    for bad in ([1, 1, math.nan], [1, 1, 10 ** 400], "nosuch", "1,2", "2param:1", [1, 1]):
        messages = set()
        for _ in range(2):
            with pytest.raises(RequestError) as info:
                parse_params(bad)
            messages.add(str(info.value))
        assert len(messages) == 1
    assert cli._TRIPLES == {}

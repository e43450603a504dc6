"""Self-tests of the benchmark: ``python3 -m pytest -q bench``."""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

import gq3  # noqa: E402
import gq3.cli as cli  # noqa: E402


@pytest.mark.parametrize("workload", sorted(workloads.MIXES))
def test_blocks_are_full(workload):
    assert sum(count for _, count in workloads.MIXES[workload]) == workloads.BLOCK


@pytest.mark.parametrize("workload", sorted(workloads.MIXES))
def test_same_seed_gives_byte_identical_files(tmp_path, workload):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    workloads.write(a, workloads.generate(workload, 7, lines=600)[0])
    workloads.write(b, workloads.generate(workload, 7, lines=600)[0])
    workloads.write(c, workloads.generate(workload, 8, lines=600)[0])
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_checker_rejects_infinity():
    request = json.dumps({"params": "hamilton", "op": "norm", "operands": [[1e200, 0, 0, 0]]})
    reason = check.check_line(request, ("error:non_finite",),
                              '{"status":"ok","result":{"scalar":Infinity}}')
    assert reason is not None and "Infinity" in reason
    # Even where ok is accepted, a non-standard constant fails the line.
    assert check.check_line(request, ("ok",), '{"status":"ok","result":{"scalar":Infinity}}')


def test_checker_rejects_wrong_error_code():
    request = json.dumps({"params": "split", "op": "inverse", "operands": [[1, 0, 1, 0]]})
    wrong = '{"status":"error","code":"non_elliptic","message":"x"}'
    right = '{"status":"error","code":"zero_norm","message":"x"}'
    assert check.check_line(request, ("error:zero_norm",), wrong) is not None
    assert check.check_line(request, ("error:zero_norm",), right) is None


def test_checker_rejects_wrong_value_and_accepts_right_one():
    request = json.dumps({"params": "hamilton", "op": "mul",
                          "operands": [[1, 0, 0, 0], [0, 1, 0, 0]]})
    assert check.check_line(request, ("ok",), '{"status":"ok","result":{"quat":[0.0,1.0,0.0,0.0]}}') is None
    assert check.check_line(request, ("ok",), '{"status":"ok","result":{"quat":[0.0,1.0,0.0,1e-6]}}')


def test_mul_overflow_answered_with_infinity_is_unexpected():
    # The seed answers mul overflow with non_finite, so only norm, dot, det,
    # inverse and adjoint overflow lines are marked as known open defects.
    texts, expect = [], []
    for op in workloads.OVERFLOW_OPS:
        request, accepted = workloads._Gen(1).overflow(op)
        texts.append(json.dumps(request))
        expect.append(accepted)
        assert (workloads.OPEN in accepted) == (op != "mul")
    infinity = '{"status":"ok","result":{"quat":[Infinity,0.0,0.0,0.0],"scalar":Infinity}}'
    report = check.check_output(texts, expect, "\n".join([infinity] * len(texts)))
    assert (report.failed, report.open, report.unexpected) == (5, 4, 1)


def _answer(request: dict) -> dict:
    response, code = cli.execute_request(request)
    assert code == 0 and response["status"] == "ok"
    return json.loads(json.dumps(response))


def _check(request: dict, response: dict):
    return check.check_line(json.dumps(request), ("ok",), json.dumps(response))


def test_checker_rejects_zero_duplicate_or_misvalued_eigenvectors():
    request = {"params": "2,3,5", "op": "eigenvectors", "operands": [[0.3, 0.2, 0.1, 0.05]]}
    good = _answer(request)
    assert _check(request, good) is None
    pairs = good["result"]["eigenvectors"]

    zero = json.loads(json.dumps(good))
    zero["result"]["eigenvectors"][0]["vector"] = [[0.0, 0.0]] * 4
    assert "size" in _check(request, zero)

    repeated = json.loads(json.dumps(good))
    repeated["result"]["eigenvectors"] = [pairs[0]] * 4
    assert "independent" in _check(request, repeated)

    # L v = t v holds for a zero vector with any t; a nonzero vector with a
    # value that is not a root of t^2 - 2 a0 t + N(p) fails.
    shifted = json.loads(json.dumps(good))
    shifted["result"]["eigenvectors"][1]["value"][0] += 1.0
    assert _check(request, shifted) is not None


def test_checker_rejects_repeated_roots():
    request = {"params": "hamilton", "op": "roots", "operands": [[0.6, 0.8, 0.0, 0.0]],
               "options": {"n": 8}}
    good = _answer(request)
    assert _check(request, good) is None
    repeated = json.loads(json.dumps(good))
    repeated["result"]["roots"]["matrices"] = [good["result"]["roots"]["matrices"][0]] * 8
    assert "coincide" in _check(request, repeated)


def test_checker_counts_missing_responses():
    texts, expect = workloads.generate("batch_mixed", 3, lines=10)
    report = check.check_output(texts, expect, "")
    assert (report.attempted, report.failed) == (10, 10)


@pytest.mark.parametrize("workload", sorted(workloads.MIXES))
def test_seed_output_passes_outside_the_overflow_lines(tmp_path, workload):
    texts, expect = workloads.generate(workload, 5, lines=300)
    path = tmp_path / "w.ndjson"
    workloads.write(path, texts)
    out = io.StringIO()
    assert cli.main(["batch", str(path)], stdout=out) == 0
    report = check.check_output(texts, expect, out.getvalue())
    assert report.attempted == 300
    assert report.unexpected == 0, report.first
    for text, accepted in zip(texts, expect):
        if "error:bad_request" not in accepted:
            assert json.loads(text)["op"] in run.OPS


def _bindings() -> dict:
    """A sample of the attributes the recorder patches, by where they live."""
    return {
        "cli.main": cli.main,
        "cli.execute_request": cli.execute_request,
        "cli.bilinear_f": cli.bilinear_f,
        "polar.bilinear_f": gq3.polar.bilinear_f,
        "gq3.left_matrix": gq3.left_matrix,
        "cli.json": cli.json,
        "GQuat.__mul__": vars(gq3.GQuat)["__mul__"],
        "GQuat.__post_init__": vars(gq3.GQuat)["__post_init__"],
        "GQuat.from_components": vars(gq3.GQuat)["from_components"],
        "_TaggedMatrix.__new__": vars(gq3.Mat4.__mro__[1])["__new__"],
    }


def test_traced_run_restores_every_patched_function(tmp_path):
    originals = _bindings()
    texts, _ = workloads.generate("batch_matrix", 4, lines=100)
    path = tmp_path / "w.ndjson"
    workloads.write(path, texts)

    rec = spans.Recorder()
    rec.install()
    patches = rec.patched_objects()
    try:
        during = _bindings()
        assert all(during[k] is not v for k, v in originals.items())
        cli.main(["batch", str(path)], stdout=io.StringIO())
    finally:
        rec.restore()

    assert spans.unpatched(patches)
    assert rec.patched_objects() == []
    assert all(_bindings()[k] is v for k, v in originals.items())
    totals = rec.layer_totals()
    assert {"cli.decode", "cli.request", "cli.emit", "core", "matrices", "polar", "lie"} <= set(totals)
    assert rec.counts["core.gquat_new"] > 0 and rec.counts["matrices.mat_new"] > 0


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.MIXES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()

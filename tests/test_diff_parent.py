"""tools/diff_parent.py against a parent tree copied from this one: no git, small inputs."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("diff_parent", ROOT / "tools" / "diff_parent.py")
diff_parent = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(diff_parent)


def test_diff_parent_finds_no_difference_in_a_copy_and_reports_a_planted_one(tmp_path):
    parent = tmp_path / "src"
    shutil.copytree(ROOT / "src", parent, ignore=shutil.ignore_patterns("__pycache__"))
    small = dict(count=150, seeds=(1,), workload_lines=100)

    report = diff_parent.compare(parent, **small)
    fixed = diff_parent._load("make_cli_responses",
                              ROOT / "tests" / "data" / "make_cli_responses.py").FIXED
    assert report.lines == len(fixed) + 150 + 2 * 100
    assert report.differences == {}
    assert report.exits["parent"] == report.exits["change"]
    assert set(report.exits["parent"]) == {"0", "1", "2"}

    # batch_mixed holds 2 param_mismatch lines in each block of 100.
    core = parent / "gq3" / "core.py"
    core.write_text(core.read_text().replace("parameter triples differ",
                                             "parameter triples disagree"))
    report = diff_parent.compare(parent, **small)
    assert report.differences and {key[1:] for key in report.differences} == {
        ("param_mismatch", "param_mismatch")}
    request, old, new = next(iter(report.examples.values()))
    assert "disagree" in old and "differ" in new
    assert report.exits["parent"] == report.exits["change"]

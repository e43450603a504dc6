"""tools/ab.py against a parent copied from this tree: no git, small inputs, no timing claim."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def test_ab_reports_every_layer_of_both_workloads_and_equal_bytes(tmp_path):
    parent = tmp_path / "src"
    shutil.copytree(ROOT / "src", parent, ignore=shutil.ignore_patterns("__pycache__"))
    summary = ab.compare(parent, pairs=2, seed=1, lines=200)

    assert (summary["seed"], summary["pairs"], summary["identical_bytes"]) == (1, 2, True)
    assert set(summary["workloads"]) == set(ab.WORKLOADS)
    for per_layer in summary["workloads"].values():
        assert set(per_layer) == set(ab.LAYERS)
        for row in per_layer.values():
            for side in ("parent_us", "change_us"):
                assert set(row[side]) == {"q1", "median", "q3"}
                assert 0 < row[side]["q1"] <= row[side]["median"] <= row[side]["q3"]
            assert row["change_wins"] in (0, 1, 2) and row["median_ratio"] > 0
    assert len(ab._report(summary).splitlines()) == 2 + len(ab.WORKLOADS) * len(ab.LAYERS)

"""tools/ab.py against a parent copied from this tree: no git, small inputs, no timing claim."""

import importlib.util
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def _caches(src: Path) -> set:
    return set(src.rglob("__pycache__"))


def test_ab_reports_every_layer_of_both_workloads_and_equal_bytes(tmp_path, monkeypatch):
    parent = tmp_path / "src"
    shutil.copytree(ROOT / "src", parent, ignore=shutil.ignore_patterns("__pycache__"))
    caches = _caches(ROOT / "src")
    # The tool itself must keep bytecode out of both trees, whatever the environment says.
    monkeypatch.setattr(sys, "dont_write_bytecode", False)
    loaded, load = {}, ab._tree

    def tree(side, src):
        loaded[side] = (src, load(side, src))
        return loaded[side][1]

    monkeypatch.setattr(ab, "_tree", tree)
    summary = ab.compare(parent, pairs=2, seed=1, lines=200)

    assert (summary["seed"], summary["pairs"], summary["identical_bytes"]) == (1, 2, True)
    assert set(summary["workloads"]) == set(ab.WORKLOADS)
    for per_layer in summary["workloads"].values():
        assert set(per_layer) == set(ab.LAYERS)
        for row in per_layer.values():
            assert set(row) == {"parent_us", "change_us", "change_wins", "ratio"}
            for key in ("parent_us", "change_us", "ratio"):
                assert set(row[key]) == {"q1", "median", "q3"}
                assert 0 < row[key]["q1"] <= row[key]["median"] <= row[key]["q3"]
            assert row["change_wins"] in (0, 1, 2)
    assert len(ab._report(summary).splitlines()) == 2 + len(ab.WORKLOADS) * len(ab.LAYERS)

    # Each side ran its own tree's modules, neither of them the gq3 this process imported.
    assert loaded["parent"][0] == parent and loaded["change"][0] == ROOT / "src"
    clis = [module for _, module in loaded.values()]
    assert clis[0] is not clis[1] and sys.modules.get("gq3.cli") not in clis
    for src, cli in loaded.values():
        assert Path(cli.__file__).is_relative_to(src / "gq3")
        assert Path(cli.lie.__file__).is_relative_to(src / "gq3")
    assert _caches(parent) == set() and _caches(ROOT / "src") == caches

    # batch_mixed holds 2 param_mismatch lines in each block of 100.
    core = parent / "gq3" / "core.py"
    core.write_text(core.read_text().replace("parameter triples differ",
                                             "parameter triples disagree"))
    assert ab.compare(parent, pairs=2, seed=1, lines=200)["identical_bytes"] is False
    assert _caches(parent) == set() and _caches(ROOT / "src") == caches

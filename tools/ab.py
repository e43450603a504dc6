"""Interleaved A/B of the ``gq3 batch`` path, layer by layer, against a parent revision.

Run from the repository root::

    python tools/ab.py --parent HEAD~1 [--pairs 10] [--seed 1]

The parent's ``src`` is exported with ``git archive`` into a temporary directory.  Both
trees' ``gq3`` are imported into this interpreter as the packages ``gq3_parent`` and
``gq3_change``, writing no bytecode.  The batch_mixed and batch_matrix workloads of
bench/workloads.py at ``--seed`` are cut into files of CHUNK lines.  Pair k times chunk
k mod n of each workload with both trees in turn, after a ``gc.collect()`` each, the side
that goes first swapping from pair to pair; pair 0 is a warm-up, and ``--pairs`` counts
the pairs after it.  Each side gives, per line of the chunk:

- ``decode``: ``json.loads`` of each line;
- ``execute``: ``cli.execute_request`` of each decoded request;
- ``encode``: ``cli._emit`` of each response into a string buffer;
- ``main``: ``cli.main(["batch", FILE])`` on the chunk's file: the three layers and the read.

The bytes ``cli.main`` printed are compared in every pair.  The report gives each side's
median and quartiles in microseconds per line, the pairs the change won and the quartiles
of the per-pair change/parent ratios, per layer and workload; its last line is the same as
one JSON object.  Both sides of a pair share the host's drift during the run, which widens
each side's own quartiles; the ratios' quartiles leave it out.

Caveat: ``main`` writes into a ``StringIO``, so it leaves out the ``write()`` system call that
an unbuffered stdout makes per response line.  bench/run.py's children inherit their
environment, and with ``PYTHONUNBUFFERED=1`` set there, every line of ``gq3 batch`` is one
such call.  A change to the write path must therefore be timed on spawned processes, not here.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import io
import json
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("decode", "execute", "encode", "main")
SIDES = ("parent", "change")
CHUNK = 500


def _load(name: str, path: Path, search: list[str] | None = None):
    # The module at ``path``, registered as ``name``; with ``search``, a package whose
    # submodules are found there (``name``.core and so on, imported afresh).
    for key in [key for key in sys.modules if key == name or key.startswith(name + ".")]:
        del sys.modules[key]
    spec = importlib.util.spec_from_file_location(name, path, submodule_search_locations=search)
    sys.modules[name] = module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads", ROOT / "bench" / "workloads.py")
WORKLOADS = tuple(workloads.MIXES)


def _tree(side: str, src: Path):
    """The ``cli`` module of the ``gq3`` under ``src``, imported as package ``gq3_<side>``."""
    # A tree holding a bytecode cache would start faster and peak lower in later runs.
    sys.dont_write_bytecode = True
    _load(f"gq3_{side}", src / "gq3" / "__init__.py", [str(src / "gq3")])
    return importlib.import_module(f"gq3_{side}.cli")


def _quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def _side(cli, lines: list[str], path: Path) -> tuple[dict, str]:
    # One tree on one chunk: the seconds per line of each layer, and the bytes main printed.
    gc.collect()
    t0 = perf_counter()
    requests = []
    for line in lines:
        try:
            requests.append(json.loads(line))
        except (ValueError, RecursionError):  # a malformed line: execute never sees it
            pass
    t1 = perf_counter()
    responses = [cli.execute_request(request)[0] for request in requests]
    t2 = perf_counter()
    out = io.StringIO()
    for response in responses:
        cli._emit(response, out)
    t3 = perf_counter()
    batch = io.StringIO()
    cli.main(["batch", str(path)], stdout=batch)
    t4 = perf_counter()
    times = (t1 - t0, t2 - t1, t3 - t2, t4 - t3)
    return dict(zip(LAYERS, (t / len(lines) for t in times))), batch.getvalue()


def compare(parent_src: Path, pairs: int = 10, seed: int = 1, lines: int | None = None) -> dict:
    """Time both trees' ``src`` on alternating chunks in this interpreter; return the summary."""
    clis = {"parent": _tree("parent", parent_src), "change": _tree("change", ROOT / "src")}
    runs = {name: {side: [] for side in SIDES} for name in WORKLOADS}
    identical = True
    with tempfile.TemporaryDirectory() as tmp:
        chunks = {name: [] for name in WORKLOADS}
        for name in WORKLOADS:
            texts = workloads.generate(name, seed, lines=lines)[0]
            for start in range(0, len(texts), CHUNK):
                chunk, path = texts[start:start + CHUNK], Path(tmp) / f"{name}-{start}.ndjson"
                workloads.write(path, chunk)
                chunks[name].append((chunk, path))
        for pair in range(pairs + 1):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for name in WORKLOADS:
                chunk = chunks[name][pair % len(chunks[name])]
                timed = {side: _side(clis[side], *chunk) for side in order}
                identical &= timed["parent"][1] == timed["change"][1]
                if pair:  # pair 0 is the warm-up
                    for side in SIDES:
                        runs[name][side].append(timed[side][0])
    summary = {"seed": seed, "pairs": pairs, "identical_bytes": identical, "workloads": {}}
    for name in WORKLOADS:
        per_layer = summary["workloads"][name] = {}
        for layer in LAYERS:
            old = [run[layer] * 1e6 for run in runs[name]["parent"]]
            new = [run[layer] * 1e6 for run in runs[name]["change"]]
            per_layer[layer] = {
                "parent_us": _quartiles(old), "change_us": _quartiles(new),
                "change_wins": sum(b < a for a, b in zip(old, new)),
                "ratio": _quartiles([b / a for a, b in zip(old, new)]),
            }
    return summary


def _spread(quartiles: dict, digits: int) -> str:
    return " / ".join(f"{quartiles[q]:.{digits}f}" for q in ("q1", "median", "q3"))


def _report(summary: dict) -> str:
    rows = [f"seed {summary['seed']}, {summary['pairs']} pairs; identical bytes: "
            f"{summary['identical_bytes']}",
            f"{'workload':<14}{'layer':<9}{'parent us/line q1/med/q3':>28}"
            f"{'change us/line q1/med/q3':>28}{'wins':>7}{'ratio q1/med/q3':>22}"]
    for name, per_layer in summary["workloads"].items():
        for layer, row in per_layer.items():
            old, new = _spread(row["parent_us"], 2), _spread(row["change_us"], 2)
            wins = f"{row['change_wins']:>4}/{summary['pairs']:<2}"
            rows.append(f"{name:<14}{layer:<9}{old:>28}{new:>28}{wins}"
                        f"{_spread(row['ratio'], 3):>22}")
    return "\n".join(rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=10, help="timed pairs of chunks")
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("quartiles need --pairs 2 or more")
    diff_parent = _load("diff_parent", ROOT / "tools" / "diff_parent.py")
    with tempfile.TemporaryDirectory() as tmp:
        summary = compare(diff_parent._export(args.parent, Path(tmp)), args.pairs, args.seed)
    summary["parent"] = args.parent
    print(_report(summary))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

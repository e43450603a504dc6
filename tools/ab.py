"""Interleaved A/B of the ``gq3 batch`` path, layer by layer, against a parent revision.

Run from the repository root::

    python tools/ab.py --parent HEAD~1 [--pairs 10] [--seed 1]

The parent's ``src`` is exported with ``git archive`` into a temporary directory, and the
batch_mixed and batch_matrix workload files are written with bench/workloads.py at
``--seed``.  Each pair runs one child process per side and workload, parent and change in
turn, the side that goes first swapping from pair to pair.  A child (``python -I -B``:
isolated from the environment, writing no bytecode; its import is not timed) imports its
tree's ``gq3.cli``, makes one warm-up pass over the workload and then three timed ones.
It reports the fastest of the three for each layer, per line of the file:

- ``decode``: ``json.loads`` of each line;
- ``execute``: ``cli.execute_request`` of each decoded request;
- ``encode``: ``cli._emit`` of each response into a string buffer;
- ``main``: the wall time of ``cli.main(["batch", FILE])``, the three layers and the file read.

It writes the bytes ``cli.main`` printed, so the report can say whether both sides wrote the
same.  The report gives each side's median and quartiles in microseconds per line, the pairs
the change won and the median over pairs of change/parent, per layer and per workload.  Its
last line is the same as one JSON object.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("batch_mixed", "batch_matrix")
LAYERS = ("decode", "execute", "encode", "main")
SIDES = ("parent", "change")

# Run in each tree: argv is the tree's src, the workload file and the output file.  It prints
# the seconds per line of each layer, in the order of LAYERS, as a JSON array.
_CHILD = """
import io, json, sys, time
sys.path.insert(0, sys.argv[1])
from gq3 import cli
path, out_path = sys.argv[2], sys.argv[3]
with open(path, "rb") as handle:
    lines = [line.decode("utf-8").strip() for line in handle]
lines = [line for line in lines if line]
clock = time.perf_counter

def layers():
    t0 = clock()
    requests = []
    for line in lines:
        try:
            requests.append(json.loads(line))
        except (ValueError, RecursionError):  # a malformed line: execute never sees it
            pass
    t1 = clock()
    responses = [cli.execute_request(request)[0] for request in requests]
    t2 = clock()
    out = io.StringIO()
    for response in responses:
        cli._emit(response, out)
    t3 = clock()
    batch = io.StringIO()
    cli.main(["batch", path], stdout=batch)
    t4 = clock()
    return [t1 - t0, t2 - t1, t3 - t2, t4 - t3], batch.getvalue()

layers()
passes = [layers() for _ in range(3)]
with open(out_path, "w", encoding="utf-8") as handle:
    handle.write(passes[-1][1])
print(json.dumps([min(times) / len(lines) for times in zip(*(times for times, _ in passes))]))
"""


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def _child(src: Path, workload: Path, out: Path) -> dict:
    done = subprocess.run([sys.executable, "-I", "-B", "-c", _CHILD, str(src), str(workload),
                           str(out)], check=True, capture_output=True, text=True)
    return dict(zip(LAYERS, json.loads(done.stdout)))


def compare(parent_src: Path, pairs: int = 10, seed: int = 1, lines: int | None = None) -> dict:
    """Time both trees' ``src`` in alternating children; return the summary."""
    workloads = _load("workloads", ROOT / "bench" / "workloads.py")
    runs = {name: {side: [] for side in SIDES} for name in WORKLOADS}
    identical = True
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        files = {}
        for name in WORKLOADS:
            files[name] = tmp / f"{name}-{seed}.ndjson"
            workloads.write(files[name], workloads.generate(name, seed, lines=lines)[0])
        srcs = {"parent": parent_src, "change": ROOT / "src"}
        for pair in range(pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for name in WORKLOADS:
                for side in order:
                    runs[name][side].append(_child(srcs[side], files[name], tmp / f"{side}.out"))
                identical &= (tmp / "parent.out").read_bytes() == (tmp / "change.out").read_bytes()
    summary = {"seed": seed, "pairs": pairs, "identical_bytes": identical, "workloads": {}}
    for name in WORKLOADS:
        per_layer = summary["workloads"][name] = {}
        for layer in LAYERS:
            old = [run[layer] * 1e6 for run in runs[name]["parent"]]
            new = [run[layer] * 1e6 for run in runs[name]["change"]]
            per_layer[layer] = {
                "parent_us": _quartiles(old), "change_us": _quartiles(new),
                "change_wins": sum(b < a for a, b in zip(old, new)),
                "median_ratio": statistics.median(b / a for a, b in zip(old, new)),
            }
    return summary


def _report(summary: dict) -> str:
    rows = [f"seed {summary['seed']}, {summary['pairs']} pairs; identical bytes: "
            f"{summary['identical_bytes']}",
            f"{'workload':<14}{'layer':<9}{'parent us/line q1/med/q3':>28}"
            f"{'change us/line q1/med/q3':>28}{'wins':>7}{'ratio':>8}"]
    for name, per_layer in summary["workloads"].items():
        for layer, row in per_layer.items():
            old, new = (" / ".join(f"{row[side][q]:.2f}" for q in ("q1", "median", "q3"))
                        for side in ("parent_us", "change_us"))
            wins = f"{row['change_wins']:>4}/{summary['pairs']:<2}"
            rows.append(f"{name:<14}{layer:<9}{old:>28}{new:>28}{wins}{row['median_ratio']:>8.3f}")
    return "\n".join(rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=10, help="alternating pairs of children")
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

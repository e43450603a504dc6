"""Run every workload untraced and traced; print every metric by name and unit.

    python3 bench/report.py --seed 1

Runs each workload for the ``run_seconds`` of BENCHMARK.json and prints one
table per group of metrics, with one row per workload.  Exits 1 when a run
crashes or fails its output check on a line other than the known open
overflow lines (see ``check.py``); the lines that do fail are listed in the
run records under ``.bench_run/``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
COLUMNS = 4


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict | None:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        return None
    return json.loads(lines[-1])


def _cell(value) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.6g}"
    return str(int(value)) if isinstance(value, float) else str(value)


def print_tables(spec: dict, rows: dict[str, dict]) -> None:
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [w["name"] for w in spec["workloads"]]
    width = max(len(n) for n in names)
    for start in range(0, len(metrics), COLUMNS):
        group = metrics[start:start + COLUMNS]
        heads = [f"{m['name']} [{m['unit']}]" for m in group]
        print("  ".join([" " * width] + [h.rjust(max(len(h), 12)) for h in heads]))
        for name in names:
            values = rows.get(name, {})
            cells = [_cell(values.get(m["name"], "-")).rjust(max(len(h), 12))
                     for m, h in zip(group, heads)]
            print("  ".join([name.ljust(width)] + cells))
        print()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    rows: dict[str, dict] = {}
    ok = True
    for workload in spec["workloads"]:
        name = workload["name"]
        rows[name] = {}
        for trace in (0, 1):
            result = run_one(name, args.seed, spec["run_seconds"], trace)
            if result is None or not result["correct"]:
                print(f"{name} trace={trace}: output check failed", file=sys.stderr)
                ok = False
            if result is not None:
                rows[name].update({k: v["value"] for k, v in result["metrics"].items()})
    print_tables(spec, rows)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

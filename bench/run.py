"""Benchmark of the ``gq3 batch FILE`` process, end to end and per layer.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload batch_mixed --seed 1 --seconds 55 --trace 0

The workload file is generated from the seed (see ``workloads.py``).

``--trace 0`` measures the real CLI process (``python -m gq3.cli batch``) in
a closed loop with one client.  Until ``--seconds`` have passed it alternates
a cold run on an empty file (set-up) with a run on the workload file, then
reports ``setup_s`` (median set-up wall time), ``throughput_rps`` (requests
over the median workload wall time minus ``setup_s``), ``peak_rss_mb``
(median of the child's own maximum resident size) and ``failed_frac``.

``--trace 1`` runs the same file in-process, alternating untraced runs with
runs under the span recorder (``spans.py``).  It reports import times, the
median per-layer self times and counts of the traced passes, error counts per
code, per-op p50/p99 of the ``cli.request`` spans of all traced passes (these
include the tracing cost) and ``trace.overhead_frac``.

Outputs are checked against independent routes (``check.py``) outside every
timed region.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``correct`` is false when a line
fails the check other than the overflow lines marked as known open defects
(``workloads.KNOWN_OPEN``); those failures still count in ``failed`` and
``failed_frac``.  A run record with the raw samples, versions,
CPU, load average, commit and seed is written to ``.bench_run/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"

# Every run ends well inside the 180 s a run may take.
WATCHDOG_S = 170
MIN_SAMPLES = 5

ERROR_CODES = (
    "param_mismatch", "zero_norm", "non_elliptic", "non_unit", "not_unit_vector",
    "degenerate_axis", "not_positive_family", "no_period", "congruence_violation",
    "non_finite", "bad_request",
)
# Every op some workload sends as a well-formed request.
OPS = (
    "mul", "add", "conj", "norm", "inverse", "dot", "wedge", "bracket",
    "left-matrix", "det", "eigenvalues", "polar", "pow", "roots", "matrix-pow",
    "adjoint", "killing-matrix", "eigenvectors", "period", "rodrigues",
)

END_TO_END = {
    "throughput_rps": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "failed_frac": "fraction",
}


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every metric a traced run reports, in order."""
    units = {"import.numpy_s": "s", "import.gq3_s": "s",
             "cli.decode.self_s": "s", "cli.bytes_in": "bytes",
             "cli.request.self_s": "s", "cli.emit.self_s": "s", "cli.bytes_out": "bytes"}
    for layer in ("core", "matrices", "polar", "lie"):
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
        if layer == "core":
            units["core.gquat_new"] = "count"
        if layer == "matrices":
            units["matrices.mat_new"] = "count"
    for code in ERROR_CODES:
        units[f"errors.count.{code}"] = "count"
    for op in OPS:
        units[f"op.{op}.count"] = "count"
        units[f"op.{op}.p50_us"] = "us"
        units[f"op.{op}.p99_us"] = "us"
    units["trace.overhead_frac"] = "fraction"
    return units


# --- child processes -------------------------------------------------------------

# A child's ru_maxrss includes the peak resident size of the address space it
# was exec'd from, and posix_spawn execs from this runner's.  Children are
# therefore started by a small launcher interpreter (no site, no imports),
# whose own peak is the bare interpreter's and so never above a Python
# child's.  The launcher times the child and reports its rusage.
_LAUNCHER = """
import os, sys, time
out, err, *argv = sys.argv[1:]
flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
actions = [(os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644), (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644)]
t0 = time.perf_counter()
pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - t0
print(repr(wall), os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""

_launcher_pid = [0]


def _watchdog(signum, frame):
    if _launcher_pid[0]:
        os.killpg(_launcher_pid[0], signal.SIGKILL)
        os.waitpid(_launcher_pid[0], 0)
    print(f"bench: run exceeded {WATCHDOG_S} s; stopped", file=sys.stderr)
    os._exit(3)


def spawn(argv: list[str], stdout_path: Path, stderr_path: Path):
    """Run one child to completion; return (wall s, exit code, peak RSS in MB)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    launcher = [sys.executable, "-I", "-S", "-c", _LAUNCHER, str(stdout_path), str(stderr_path), *argv]
    read_end, write_end = os.pipe()
    try:
        # Own process group, so that the watchdog can stop launcher and child.
        _launcher_pid[0] = os.posix_spawn(
            sys.executable, launcher, env, setpgroup=0,
            file_actions=[(os.POSIX_SPAWN_DUP2, write_end, 1)])
    finally:
        os.close(write_end)
    with os.fdopen(read_end, encoding="ascii") as pipe:
        report = pipe.read().split()
    _, status = os.waitpid(_launcher_pid[0], 0)
    _launcher_pid[0] = 0
    if status != 0 or len(report) != 3:
        raise RuntimeError(f"launcher failed with status {status}: {report}")
    wall, code, maxrss_kb = report
    return float(wall), int(code), int(maxrss_kb) / 1024.0


def batch_argv(path: Path) -> list[str]:
    return [sys.executable, "-m", "gq3.cli", "batch", str(path)]


# --- run record ----------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return done.stdout.strip() or None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "gq3").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_record(args) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": sys.version.split()[0],
        "numpy": numpy_version, "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "loadavg_start": os.getloadavg(), "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


# --- statistics -------------------------------------------------------------------


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


class Checked:
    """Check each distinct output once; count every run's lines."""

    def __init__(self, texts, expect):
        from check import check_output

        self._check = check_output
        self.texts, self.expect = texts, expect
        self.reports: dict[str, object] = {}
        self.attempted = self.failed = self.unexpected = 0

    def add(self, output: str) -> None:
        key = hashlib.sha256(output.encode()).hexdigest()
        if key not in self.reports:
            self.reports[key] = self._check(self.texts, self.expect, output)
        report = self.reports[key]
        self.attempted += report.attempted
        self.failed += report.failed
        self.unexpected += report.unexpected


# --- untraced: the real process ------------------------------------------------------


def measure_process(path: Path, texts, expect, seconds: float, tag: str):
    empty = WORK / "empty.ndjson"
    empty.write_bytes(b"")
    out, err = WORK / f"out-{tag}.ndjson", WORK / f"err-{tag}.txt"
    empty_out = WORK / f"out-empty-{tag}.ndjson"
    # Warm-up: byte-compiles the package and fills the page cache.  Its
    # output is checked now, so that identical outputs later are only hashed.
    spawn(batch_argv(empty), empty_out, err)
    spawn(batch_argv(path), out, err)
    checked = Checked(texts, expect)
    checked.add(out.read_text(encoding="utf-8"))

    setups, walls, rss, problems = [], [], [], []
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_SAMPLES or time.perf_counter() < deadline:
        wall, code, _ = spawn(batch_argv(empty), empty_out, err)
        setups.append(wall)
        if code != 0:
            problems.append(f"empty batch exited {code}")
        wall, code, peak_mb = spawn(batch_argv(path), out, err)
        walls.append(wall)
        rss.append(peak_mb)
        if code != 0 or err.stat().st_size:
            problems.append(f"batch exited {code}: {err.read_text()[:200]}")
        checked.add(out.read_text(encoding="utf-8"))

    setup_s = statistics.median(setups)
    metrics = {
        "throughput_rps": len(texts) / (statistics.median(walls) - setup_s),
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(rss),
        "failed_frac": checked.failed / checked.attempted,
    }
    raw = {"setup_s": setups, "batch_wall_s": walls, "peak_rss_mb": rss,
           "problems": problems}
    return metrics, checked, raw, not problems


# --- traced: in-process spans ---------------------------------------------------------


_IMPORT_LINE = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)")


def import_times(tag: str, repeats: int = 3) -> tuple[float, float]:
    """Median (numpy, gq3 without numpy) import seconds from -X importtime.

    numpy counts wherever it is imported; gq3 is the outermost gq3 entries'
    cumulative time minus numpy's.
    """
    empty_out, err = WORK / f"out-import-{tag}.txt", WORK / f"importtime-{tag}.txt"
    numpy_s, gq3_s = [], []
    for _ in range(repeats):
        spawn([sys.executable, "-X", "importtime", "-c", "import gq3.cli"], empty_out, err)
        entries = [(len(m.group(2)), m.group(3), int(m.group(1)))
                   for m in map(_IMPORT_LINE.match, err.read_text().splitlines()) if m]
        top = min(depth for depth, _, _ in entries)
        numpy_us = sum(us for _, name, us in entries if name == "numpy")
        gq3_us = sum(us for depth, name, us in entries
                     if depth == top and (name == "gq3" or name.startswith("gq3.")))
        numpy_s.append(numpy_us / 1e6)
        gq3_s.append((gq3_us - numpy_us) / 1e6)
    return statistics.median(numpy_s), statistics.median(gq3_s)


def measure_traced(path: Path, texts, expect, seconds: float, tag: str):
    import spans

    import gq3.cli as cli

    def run_once():
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        code = cli.main(["batch", str(path)], stdout=out, stderr=err)
        wall = time.perf_counter() - t0
        if code != 0 or err.getvalue():
            raise RuntimeError(f"in-process batch exited {code}: {err.getvalue()[:200]}")
        return wall, out.getvalue()

    checked = Checked(texts, expect)
    checked.add(run_once()[1])  # warm-up
    untraced, traced, layers, op_times = [], [], [], {}
    restored = True
    last = None
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_SAMPLES or time.perf_counter() < deadline:
        wall, output = run_once()
        untraced.append(wall)
        checked.add(output)
        rec = spans.Recorder()
        rec.install()
        patches = rec.patched_objects()
        try:
            wall, output = run_once()
        finally:
            rec.restore()
        restored = restored and spans.unpatched(patches)
        traced.append(wall)
        checked.add(output)
        layers.append(rec.layer_totals())
        for op, dur in rec.request_ops:
            op_times.setdefault(op, []).append(dur)
        last = (rec, output)
    rec, output = last
    rec.write_spans(WORK / f"spans-{tag}.tsv")

    def layer(name, key):
        return statistics.median(t.get(name, {}).get(key, 0) for t in layers)

    metrics: dict[str, float] = {}
    metrics["import.numpy_s"], metrics["import.gq3_s"] = import_times(tag)
    metrics["cli.decode.self_s"] = layer("cli.decode", "self_s")
    metrics["cli.bytes_in"] = path.stat().st_size
    metrics["cli.request.self_s"] = layer("cli.request", "self_s")
    metrics["cli.emit.self_s"] = layer("cli.emit", "self_s")
    metrics["cli.bytes_out"] = len(output.encode("utf-8"))
    for name in ("core", "matrices", "polar", "lie"):
        metrics[f"{name}.self_s"] = layer(name, "self_s")
        metrics[f"{name}.calls"] = layer(name, "calls")
    metrics["core.gquat_new"] = rec.counts.get("core.gquat_new", 0)
    metrics["matrices.mat_new"] = rec.counts.get("matrices.mat_new", 0)
    codes = {}
    for line in output.splitlines():
        code = json.loads(line).get("code")
        if code is not None:
            codes[code] = codes.get(code, 0) + 1
    for code in ERROR_CODES:
        metrics[f"errors.count.{code}"] = codes.get(code, 0)
    reps = len(traced)
    for op in OPS:
        times = sorted(op_times.get(op, []))
        metrics[f"op.{op}.count"] = len(times) // reps
        metrics[f"op.{op}.p50_us"] = percentile(times, 50) * 1e6
        metrics[f"op.{op}.p99_us"] = percentile(times, 99) * 1e6
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    raw = {"untraced_wall_s": untraced, "traced_wall_s": traced, "layers": layers,
           "error_codes": codes, "restored": restored}
    return metrics, checked, raw, restored


# --- main --------------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.MIXES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gq3" / "cli.py").is_file():
        print(f"bench: no gq3 sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _watchdog)
    signal.alarm(WATCHDOG_S)
    WORK.mkdir(exist_ok=True)
    record = run_record(args)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    texts, expect = workloads.generate(args.workload, args.seed)
    path = WORK / f"{args.workload}-seed{args.seed}.ndjson"
    workloads.write(path, texts)

    if args.trace:
        measure, units = measure_traced, per_layer_units()
    else:
        measure, units = measure_process, END_TO_END
    values, checked, raw, healthy = measure(path, texts, expect, args.seconds, tag)
    correct = healthy and checked.unexpected == 0
    result = {
        "correct": correct,
        "attempted": checked.attempted,
        "failed": checked.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record.update(loadavg_end=os.getloadavg(), requests=len(texts), raw=raw,
                  checks=[r.as_dict() for r in checked.reports.values()], result=result)
    (WORK / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    signal.alarm(0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

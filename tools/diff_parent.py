"""Compare the CLI answers of this tree with those of a parent revision, line by line.

Run from the repository root::

    python tools/diff_parent.py --parent HEAD~1 [--count 40000]

The parent's ``src`` is exported with ``git archive`` into a temporary directory.  Both
trees answer the same requests: the ``FIXED`` requests of tests/data/make_cli_responses.py
and ``--count`` more from its generator (every op over the test families, two overflowing
triples, edge operands, unit inputs, operand-level params and integer options up to 400
digits), then the batch_mixed and batch_matrix workload files of bench/workloads.py at
seeds 1, 47 and 121.  Each tree answers in its own interpreter, with no bytecode cache:
``gq3 batch`` writes the response bytes, and ``execute_request`` gives the exit code a
single-shot run of each request would have (2 for a line that is not JSON).

The report counts the differing lines per op and per (parent code, change code), with the
first line of each, and the exit codes of each side.  It exits 1 when a line differs.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import random
import subprocess
import sys
import tarfile
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 47, 121)


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads", ROOT / "bench" / "workloads.py")
WORKLOADS = tuple(workloads.MIXES)


# Run in each tree: argv is the tree's src, the output directory and the request files.
# For each file it writes NAME.out, the batch output, and NAME.exit, one exit code a line.
_DRIVER = """
import io, json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from gq3 import cli
out_dir = Path(sys.argv[2])
for path in map(Path, sys.argv[3:]):
    out = io.StringIO()
    cli.main(["batch", str(path)], stdout=out)
    (out_dir / (path.name + ".out")).write_text(out.getvalue(), encoding="utf-8")
    codes = []
    for line in path.read_text(encoding="utf-8").splitlines():
        try:
            request = json.loads(line)
        except ValueError:
            codes.append(2)
        else:
            codes.append(cli.execute_request(request)[1])
    (out_dir / (path.name + ".exit")).write_text("".join(f"{c}\\n" for c in codes))
"""


class Report:
    def __init__(self):
        self.lines = 0
        # (op, parent code, change code) -> number of differing lines; "ok" for a success
        self.differences = Counter()
        # the same key -> (request line, parent response, change response) of its first line
        self.examples = {}
        self.exits = {"parent": Counter(), "change": Counter()}


def _code(response: str) -> str:
    answer = json.loads(response)
    return answer.get("code", answer["status"])


def _op(line: str) -> str:
    try:
        request = json.loads(line)
    except ValueError:
        return "(not JSON)"
    return str(request.get("op")) if isinstance(request, dict) else "(not an object)"


def _request_files(directory: Path, count: int, seeds, workload_lines) -> list[Path]:
    # The generated requests, then each workload at each seed.  The generator imports gq3.
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    responses = _load("make_cli_responses", ROOT / "tests" / "data" / "make_cli_responses.py")
    rng = random.Random(responses.SEED)
    requests = [*responses.FIXED, *(responses._request(rng) for _ in range(count))]
    files = [directory / "generated.ndjson"]
    files[0].write_text("".join(json.dumps(request) + "\n" for request in requests),
                        encoding="utf-8")
    for name in WORKLOADS:
        for seed in seeds:
            files.append(directory / f"{name}-{seed}.ndjson")
            workloads.write(files[-1], workloads.generate(name, seed, lines=workload_lines)[0])
    return files


def compare(parent_src: Path, count: int = 40000, seeds=SEEDS,
            workload_lines: int | None = None) -> Report:
    """Answer the same requests with both trees' ``src`` and count where they differ."""
    report = Report()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        files = _request_files(tmp, count, seeds, workload_lines)
        for side, src in (("parent", parent_src), ("change", ROOT / "src")):
            (tmp / side).mkdir()
            subprocess.run([sys.executable, "-I", "-B", "-c", _DRIVER, str(src), str(tmp / side),
                            *map(str, files)], check=True)
        for path in files:
            requests = path.read_text(encoding="utf-8").splitlines()
            answers = {side: ((tmp / side / (path.name + ".out")).read_text("utf-8").splitlines(),
                              (tmp / side / (path.name + ".exit")).read_text().split())
                       for side in ("parent", "change")}
            for side, (responses, codes) in answers.items():
                if not len(responses) == len(codes) == len(requests):
                    raise RuntimeError(f"{side}: {path.name} has {len(requests)} requests, "
                                       f"{len(responses)} responses, {len(codes)} exit codes")
                report.exits[side].update(codes)
            report.lines += len(requests)
            (old, old_codes), (new, new_codes) = answers["parent"], answers["change"]
            for request, a, b, x, y in zip(requests, old, new, old_codes, new_codes):
                if a != b or x != y:
                    key = (_op(request), _code(a), _code(b))
                    report.differences[key] += 1
                    report.examples.setdefault(key, (request, a, b))
    return report


def _export(rev: str, dest: Path) -> Path:
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return dest / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--count", type=int, default=40000, help="generated requests")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        report = compare(_export(args.parent, Path(tmp)), count=args.count)
    print(f"{report.lines} lines: the fixed requests, {args.count} generated, "
          f"{', '.join(WORKLOADS)} at seeds {', '.join(map(str, SEEDS))}")
    for side, exits in report.exits.items():
        print(f"exit codes 0/1/2, {side}: " + "/".join(str(exits[c]) for c in "012"))
    print(f"differing lines: {sum(report.differences.values())}")
    for key, n in sorted(report.differences.items()):
        request, a, b = report.examples[key]
        print(f"  {key[0]}: {key[1]} -> {key[2]}: {n}\n    first: {request}\n"
              f"    parent: {a}\n    change: {b}")
    return 1 if report.differences else 0


if __name__ == "__main__":
    sys.exit(main())

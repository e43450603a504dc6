"""Check that other Python interpreters write gq3's committed bytes and its batch bytes.

Run from the repository root::

    python tools/interpreters.py --python /usr/bin/python3.10 [--python PATH ...]

Under each interpreter given, with ``PYTHONPATH=src`` and ``-B`` (no bytecode cache), the
three generators of tests/data each write their file into a temporary directory, and
``gq3 batch`` answers the batch_mixed and batch_matrix workload files of bench/workloads.py
at seed 1.  The report gives, per interpreter and file, whether the bytes equal the committed
file or, for a batch stdout, the stdout of the interpreter running this script.  It exits 1
when any differ or a run fails.  No interpreter needs more than the standard library.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
# Generator -> the committed file it writes.
GENERATORS = {"make_cli_responses": "cli_responses.ndjson",
              "make_batch_digests": "batch_digests.json",
              "make_single_shot_digests": "single_shot_digests.json"}
WORKLOADS = ("batch_mixed", "batch_matrix")
SEED = 1

# Run under each interpreter: argv is the generator's path and the file it writes.
_GENERATE = """
import importlib.util, sys
from pathlib import Path
spec = importlib.util.spec_from_file_location("generator", sys.argv[1])
generator = importlib.util.module_from_spec(spec)
spec.loader.exec_module(generator)
generator.main(Path(sys.argv[2]))
"""


def _run(python: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([python, "-B", *args], cwd=ROOT, env=env, capture_output=True)


def _outcome(done: subprocess.CompletedProcess, produced: bytes, expected: bytes) -> str:
    if done.returncode:
        lines = done.stderr.decode("utf-8", "replace").strip().splitlines() or ["no stderr"]
        return f"failed (exit {done.returncode}): {lines[-1]}"
    return "same" if produced == expected else "differs"


def check(pythons, data: Path = DATA, generators=tuple(GENERATORS), workloads=WORKLOADS,
          out=None) -> bool:
    """Report each interpreter's bytes per file; True when every file is the same."""
    same = True
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        batches = {}  # workload -> (its file, the stdout of this interpreter)
        if workloads:
            spec = importlib.util.spec_from_file_location("workloads",
                                                          ROOT / "bench" / "workloads.py")
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            for name in workloads:
                path = tmp / f"{name}-{SEED}.ndjson"
                module.write(path, module.generate(name, SEED)[0])
                done = _run(sys.executable, "-m", "gq3.cli", "batch", str(path))
                if done.returncode:
                    raise RuntimeError(f"{sys.executable}: gq3 batch {path.name} "
                                       f"exited {done.returncode}")
                batches[name] = path, done.stdout
        for index, python in enumerate(pythons):
            version = _run(python, "-c", "import platform; print(platform.python_version())")
            label = f"{python} ({version.stdout.decode().strip() or 'no version'})"
            (tmp / str(index)).mkdir()
            for generator in generators:
                written = tmp / str(index) / GENERATORS[generator]
                done = _run(python, "-c", _GENERATE, str(data / f"{generator}.py"), str(written))
                committed = (data / GENERATORS[generator]).read_bytes()
                outcome = _outcome(done, written.read_bytes() if written.exists() else b"",
                                   committed)
                same &= outcome == "same"
                print(f"{label} {GENERATORS[generator]}: {outcome}", file=out)
            for name, (path, expected) in batches.items():
                done = _run(python, "-m", "gq3.cli", "batch", str(path))
                outcome = _outcome(done, done.stdout, expected)
                same &= outcome == "same"
                print(f"{label} gq3 batch {name} seed {SEED}: {outcome}", file=out)
    return same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--python", action="append", required=True, metavar="PATH",
                        help="an interpreter to check; give it once per interpreter")
    args = parser.parse_args(argv)
    return 0 if check(args.python) else 1


if __name__ == "__main__":
    sys.exit(main())

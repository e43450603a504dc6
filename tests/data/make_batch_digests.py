"""Write batch_digests.json: one SHA-256 per op of ``gq3 batch`` stdout on the bench workloads.

Run from the repository root::

    PYTHONPATH=src python tests/data/make_batch_digests.py

The batch_mixed and batch_matrix files of bench/workloads.py at seeds 1, 47 and 121 each go
through ``main(["batch", FILE])`` in this interpreter.  Each response line is filed under the
op of its request, in input order, and the lines of each op are hashed with their newlines.
tests/test_cli.py checks that the committed file is what this writes, so a change that moves a
byte of any workload answer regenerates the file and says so.

The angle ops of make_cli_responses.ANGLE_OPS are left out: their answers take cos, sin or
atan2, whose last bits depend on the platform's libm.
"""

from __future__ import annotations

import hashlib
import importlib.util
import io
import json
import tempfile
from collections import defaultdict
from pathlib import Path

from gq3 import cli

ROOT = Path(__file__).resolve().parents[2]
OUT = Path(__file__).with_name("batch_digests.json")

# The workload files, and the key each line is filed under, are tools/diff_parent.py's.
_spec = importlib.util.spec_from_file_location("diff_parent", ROOT / "tools" / "diff_parent.py")
diff_parent = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(diff_parent)
workloads = diff_parent.workloads
ANGLE_OPS = diff_parent._load("make_cli_responses",
                              Path(__file__).with_name("make_cli_responses.py")).ANGLE_OPS


def digests(name: str, seed: int, directory: Path) -> dict[str, str]:
    """The SHA-256 of each op's response lines to workload ``name`` at ``seed``."""
    texts = workloads.generate(name, seed)[0]
    path = directory / f"{name}-{seed}.ndjson"
    workloads.write(path, texts)
    out = io.StringIO()
    cli.main(["batch", str(path)], stdout=out)
    lines = defaultdict(list)
    for text, response in zip(texts, out.getvalue().splitlines(keepends=True), strict=True):
        lines[diff_parent._op(text)].append(response)
    return {op: hashlib.sha256("".join(group).encode()).hexdigest()
            for op, group in sorted(lines.items()) if op not in ANGLE_OPS}


def main(path: Path = OUT) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        table = {name: {str(seed): digests(name, seed, Path(tmp)) for seed in diff_parent.SEEDS}
                 for name in diff_parent.WORKLOADS}
    path.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()

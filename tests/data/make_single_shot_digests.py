"""Write single_shot_digests.json: one SHA-256 per op and per malformed class of single-shot runs.

Run from the repository root::

    PYTHONPATH=src python tests/data/make_single_shot_digests.py

A fixed seed draws ``PER_OP`` argv lists for each op and ``PER_CLASS`` for each class of
malformed argv in ``CLASSES``.  An op's lists carry literals of its operand kinds over the
test families, operands over a second triple (``"a0,a1,a2,a3@2,3,5"``), stray ``--n`` and
``--s`` values, and in about a third of them one fault: no params, bad params, a missing, extra
or malformed operand.  Each list goes through ``cli.main(argv)`` in this interpreter, with an
empty binary stdin.  The JSON record ``[argv, exit code, stdout, stderr]`` of each list is
filed under its op or class, in draw order, and each group's records are hashed with their
newlines.  tests/test_cli.py checks that the committed file is what this writes, so a change
that moves a byte, an exit code or a stderr line of any of them regenerates the file and says so.

The angle ops of make_cli_responses.ANGLE_OPS are left out, as make_batch_digests.py leaves
them out: their answers take cos, sin or atan2, whose last bits depend on the platform's libm.
"""

from __future__ import annotations

import hashlib
import importlib.util
import io
import json
import random
from collections import defaultdict
from pathlib import Path

from gq3 import cli

OUT = Path(__file__).with_name("single_shot_digests.json")
SEED = 20261022
PER_OP = 200
PER_CLASS = 100

_spec = importlib.util.spec_from_file_location(
    "make_cli_responses", Path(__file__).with_name("make_cli_responses.py"))
responses = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(responses)
OPS = sorted(set(cli.OPS) - responses.ANGLE_OPS)

BAD_PARAMS = ["nope", "Hamilton", "1,2", "1,x,3", "hamilton:1,2", "2param:1", "2param:1e999,1",
              "2param:nan,1", "nan,1,1", "1,1,1e999", ""]
BAD_LITERALS = ["", "x", "1,2", "1,,2,3", "nan,0,0,0", "1e999,0,0", "inf", "0,1,0,0@nope",
                "0,1,0@1,2", "@hamilton", "1,2,3,4,5"]
OPTION_VALUES = ["2", "-3", "2.0", "2.5", "x", "1e999", "nan", "", "--n", str(10**30)]
WORDS = ["frobnicate", "Mul", "ops", "MUL", "", "-", "-0.5,0.5,0.5,0.5", "norm2", "batches"]


def _text(value) -> str:
    # A literal as the command line carries it: comma-separated numbers, or the text itself.
    if isinstance(value, str):
        return value
    if isinstance(value, (list, tuple)):
        return ",".join(map(repr, value))
    return repr(value)


def _operand(rng: random.Random, kind: str) -> str:
    value = responses._operand(rng, kind)
    if isinstance(value, dict):
        return f"{_text(value['components'])}@{_text(value['params'])}"
    return _text(value)


def _insert(rng: random.Random, argv: list[str], *tokens: str) -> list[str]:
    # Flags and their values go in anywhere: the argv walker takes them in any interleaving.
    at = rng.randint(0, len(argv))
    return [*argv[:at], *tokens, *argv[at:]]


def _op_argv(rng: random.Random, op: str) -> list[str]:
    params = _text(rng.choice(responses.PARAMS))
    operands = [_operand(rng, kind) for kind in cli.OPS[op].operands]
    fault = rng.randrange(9)
    if fault == 0:
        params = rng.choice(BAD_PARAMS)
    elif fault == 1 and operands:
        operands.pop(rng.randrange(len(operands)))
    elif fault == 2:
        operands.append(_operand(rng, rng.choice(["quat", "vec", "scalar"])))
    elif fault == 3 and operands:
        operands[rng.randrange(len(operands))] = rng.choice(BAD_LITERALS)
    argv = [op, *operands]
    if fault != 4:
        argv = _insert(rng, argv, "--params", params)
    for flag in ("--n", "--s"):
        if rng.random() < 0.1:
            argv = _insert(rng, argv, flag, rng.choice(OPTION_VALUES))
    return argv


# Malformed argv class -> how one list of it is drawn.
CLASSES = {
    "(help)": lambda rng: _insert(rng, _op_argv(rng, rng.choice(OPS)),
                                  rng.choice(["-h", "--help"])),
    "(no op)": lambda rng: [token for flag in ("--params", "--n", "--s") if rng.random() < 0.5
                            for token in (flag, _text(rng.choice(responses.PARAMS)))],
    "(unknown flag)": lambda rng: _insert(
        rng, _op_argv(rng, rng.choice(OPS)),
        rng.choice(["--version", "--param", "--N", "--", "---n", "--params=hamilton",
                    "--tolerance"])),
    "(flag without a value)": lambda rng: [*_op_argv(rng, rng.choice(OPS)),
                                           rng.choice(["--params", "--n", "--s"])],
    "(unknown op)": lambda rng: _insert(
        rng, [rng.choice(WORDS), *(_operand(rng, "quat") for _ in range(rng.randrange(3)))],
        "--params", _text(rng.choice(responses.PARAMS))),
    "(batch)": lambda rng: rng.choice([
        ["batch"], ["batch", "-", "-"], ["batch", "a.ndjson", "b.ndjson"], ["batch", "-"],
        ["--params", "hamilton", "batch", "-"], ["batch", "-", "--n", "2"],
        ["batch", "--s", "1", "-"], ["batch", "-", "--params", "split"]]),
}


def _record(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(argv, stdin=io.BytesIO(), stdout=out, stderr=err)
    return json.dumps([argv, code, out.getvalue(), err.getvalue()]) + "\n"


def digests() -> dict[str, str]:
    """The SHA-256 of each op's and each malformed class's records."""
    rng = random.Random(SEED)
    records = defaultdict(list)
    for op in OPS:
        records[op] += [_record(_op_argv(rng, op)) for _ in range(PER_OP)]
    for name, draw in CLASSES.items():
        records[name] += [_record(draw(rng)) for _ in range(PER_CLASS)]
    return {group: hashlib.sha256("".join(lines).encode()).hexdigest()
            for group, lines in sorted(records.items())}


def main(path: Path = OUT) -> None:
    path.write_text(json.dumps(digests(), indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()

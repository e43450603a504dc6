"""Write cli_responses.ndjson: seeded CLI requests with the exact response line and exit code.

Run from the repository root::

    PYTHONPATH=src python tests/data/make_cli_responses.py

Each output line is ``{"request": ..., "exit": ..., "response": ...}``, where ``response`` is
the line ``gq3 batch`` writes for the request and ``exit`` the code a single-shot run of it
exits with.  tests/test_cli.py compares the CLI's output with the file line by line, so a
change that moves a byte of any response regenerates the file and says so.

A line is kept only when its answer takes no cos, sin or atan2, whose last bits depend on the
platform's libm: every line of the ops in ``LIBM_FREE_OPS``, and the lines of the other ops
that fail before an angle is taken.  The requests run over every test family, two triples
whose pairwise products overflow, operands at the edges of double range, unit inputs, operands
over a second triple, and malformed requests.
"""

from __future__ import annotations

import io
import json
import math
import random
from pathlib import Path

from gq3.cli import OPS, _emit, execute_request

SEED = 20261019
COUNT = 443
OUT = Path(__file__).with_name("cli_responses.ndjson")

ANGLE_OPS = {"polar", "pow", "matrix-pow", "exp", "exp-matrix", "roots", "period", "scaled-pow",
             "rodrigues"}
LIBM_FREE_OPS = set(OPS) - ANGLE_OPS
# The codes an angle op answers before it takes an angle, with a message free of one.
BEFORE_ANGLE_CODES = {"bad_request", "param_mismatch", "zero_norm", "non_elliptic", "non_unit",
                      "not_unit_vector", "not_positive_family"}

PARAMS = ["hamilton", "split", "semi", "split-semi", "quarter", "2,3,5", [1.0, 0.7, -1.3],
          "2param:2,3", [1e200, 1e200, 1.0], [1e154, -1e154, 1e154]]
EDGES = [0.0, -0.0, 1.0, -1.0, 0.5, 1e-7, 1e150, 1e-160, 1e200, -1e200, 1e308, -1e308, 5e-324]
UNIT_QUATS = [[-0.5, 0.5, 0.5, 0.5], [0.6, 0.8, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]
UNIT_VECS = [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.6, 0.8, 0.0]]
INTS = [-3, 0, 1, 2, 4, 8, 10**400]

# Lines that pin a decision on their own: the numbers the library checks where it computes
# them, and the gates that report an overflow in their own terms.
FIXED = [
    {"params": "hamilton", "op": "norm", "operands": [[1e200, 0, 0, 0]]},
    {"params": "split", "op": "norm", "operands": [[0, 0, 0, 1e200]]},  # -inf
    {"params": "hamilton", "op": "dot", "operands": [[1e200, 0, 0, 0], [1e200, 0, 0, 0]]},
    {"params": "hamilton", "op": "det", "operands": [[1e200, 0, 0, 0]]},  # NaN
    {"params": "hamilton", "op": "bilinear", "operands": [[1e200, 0, 0], [1e200, 0, 0]]},
    {"params": "hamilton", "op": "killing", "operands": [[1e200, 0, 0], [1e200, 0, 0]]},  # -inf
    {"params": "split", "op": "killing", "operands": [[0, 1e200, 0], [0, 1e200, 0]]},  # +inf
    {"params": "hamilton", "op": "char-poly", "operands": [[1e100, 1e100, 0, 0]]},
    {"params": "split", "op": "char-poly", "operands": [[1, 0, 0, 1e200]]},  # norm -inf
    {"params": "hamilton", "op": "char-poly", "operands": [[1e308, 0, 0, 0]]},
    {"params": "hamilton", "op": "eigenvalues", "operands": [[1, 1e200, 0, 0]]},
    {"params": "hamilton", "op": "eigenvectors", "operands": [[1e200, 1e200, 1e200, 0]]},
    {"params": "hamilton", "op": "eigenvectors", "operands": [[1, 2, 0, 0]]},  # degenerate
    {"params": "hamilton", "op": "matrix-pow", "operands": [[1e200, 0, 0, 0]],
     "options": {"n": 2}},  # norm inf != 1
    {"params": "hamilton", "op": "period", "operands": [[2, 0, 0, 0]]},
    {"params": "hamilton", "op": "exp", "operands": [[1e200, 0, 0], 0.5]},  # f(v, v) = inf
    {"params": "hamilton", "op": "rodrigues", "operands": [[2, 0, 0], 0.5]},
    {"params": "split", "op": "rodrigues", "operands": [[1, 0, 0], 0.5]},
    {"params": "split", "op": "pow", "operands": [[2, 0, 0, 1]], "options": {"n": 2}},
    {"params": "hamilton", "op": "polar", "operands": [[0, 0, 0, 0]]},
    {"params": "hamilton", "op": "roots", "operands": [[-0.5, 0.5, 0.5, 0.5]],
     "options": {"n": 0}},
    {"params": "hamilton", "op": "mul", "operands": [[1, 0, 0, 0],
                                                    {"components": [0, 1, 0, 0],
                                                     "params": "2,3,5"}]},
    {"params": "hamilton", "op": "frobnicate", "operands": []},
    {"params": "hamilton", "op": "norm", "operands": ["nan,0,0,0"]},
    {"params": [1, 1], "op": "norm", "operands": [[1, 0, 0, 0]]},
    {"params": "hamilton", "op": "period", "operands": [[1, 0, 0, 0]],
     "options": {"tolerance": "big"}},
    ["not", "an", "object"],
]
# JSON's non-finite literals NaN, Infinity and -Infinity, which Python's decoder accepts, in
# each place a number is read: a quaternion, a vector, an operand object's components, a
# params list and a scalar operand; and as a tolerance, which every op refuses.
FIXED += [request
          for x in (math.nan, math.inf, -math.inf)
          for request in (
              {"params": "hamilton", "op": "norm", "operands": [[x, 0, 0, 0]]},
              {"params": "hamilton", "op": "bilinear", "operands": [[1, 0, 0], [0, x, 0]]},
              {"params": "hamilton", "op": "conj",
               "operands": [{"components": [0, 0, 0, x], "params": "split"}]},
              {"params": [1, x, 1], "op": "norm", "operands": [[1, 0, 0, 0]]},
              {"params": "hamilton", "op": "scale", "operands": [x, [1, 0, 0, 0]]},
              {"params": "hamilton", "op": "period", "operands": [[1, 0, 0, 0]],
               "options": {"tolerance": x}})]
# The request layer's remaining branches: the shapes of operands, options and params it
# refuses, one it accepts (options null), and integer options given as integral floats.
FIXED += [
    {"params": "hamilton", "op": "norm", "operands": {"p": [1, 0, 0, 0]}},
    {"params": "hamilton", "op": "norm", "operands": [[1, 2, 3, 4]], "options": None},
    {"params": "hamilton", "op": "norm", "operands": [[1, 2, 3, 4]], "options": [1]},
    {"params": "hamilton", "op": "conj",
     "operands": [{"components": [1, 0, 0, 0], "params": "split", "id": 1}]},
    {"params": "hamilton", "op": "conj", "operands": [{"params": "split"}]},
    {"params": 5, "op": "norm", "operands": [[1, 0, 0, 0]]},
    {"params": "hamilton:1,2", "op": "norm", "operands": [[1, 0, 0, 0]]},
    {"params": "nope:1,2", "op": "norm", "operands": [[1, 0, 0, 0]]},
    {"params": "hamilton", "op": "norm", "operands": [[1, 2, 3]]},
    {"params": "hamilton", "op": "norm", "operands": [5]},
    {"params": "hamilton", "op": "scale", "operands": ["x", [1, 0, 0, 0]]},
    {"params": "hamilton", "op": "scale", "operands": [[1], [1, 0, 0, 0]]},
    {"params": "hamilton", "op": "matrix-pow", "operands": [[2, 0, 0, 0]],
     "options": {"n": 2.0}},  # non_unit: n = 2.0 is taken as 2
    {"params": "hamilton", "op": "roots", "operands": [[-0.5, 0.5, 0.5, 0.5]],
     "options": {"n": 0.0}},
]
# A sum of -0.0 terms is -0.0, which JSON prints differently from 0.0.
FIXED += [
    {"params": "hamilton", "op": "bilinear", "operands": [[0, 0, 0], [-1, -1, -1]]},
    {"params": "hamilton", "op": "dot", "operands": [[0, 0, 0, 0], [-1, -1, -1, -1]]},
]
# Family names are taken only as documented: no other case, no "two-param".
FIXED += [
    {"params": "Hamilton", "op": "norm", "operands": [[1, 0, 0, 0]]},
    {"params": "two-param:1,2", "op": "norm", "operands": [[1, 0, 0, 0]]},
]
# A JSON integer past the float range gets the message of the place it is read in.
FIXED += [
    {"params": "hamilton", "op": "norm", "operands": [[10**400, 0, 0, 0]]},
    {"params": "hamilton", "op": "scale", "operands": [10**400, [1, 0, 0, 0]]},
    {"params": "hamilton", "op": "period", "operands": [[1, 0, 0, 0]],
     "options": {"tolerance": 10**400}},
]
# A JSON boolean is no number, though float() takes it: in an operand and in a params list.
FIXED += [
    {"params": "hamilton", "op": "norm", "operands": [[True, 0, 0, 0]]},
    {"params": [True, True, True], "op": "norm", "operands": [[1, 0, 0, 0]]},
]
# A non-finite 2param parameter: family's own NonFinite, answered bad_request with its text.
FIXED += [
    {"params": "2param:1e999,1", "op": "norm", "operands": [[1, 0, 0, 0]]},
    {"params": "2param:nan,1", "op": "norm", "operands": [[1, 0, 0, 0]]},
]


def _number(rng: random.Random) -> float:
    pick = rng.random()
    if pick < 0.35:
        return rng.choice(EDGES)
    if pick < 0.8:
        return round(rng.uniform(-4.0, 4.0), rng.choice([0, 1, 3]))
    return float(f"{rng.choice('-+')}1e{rng.randint(-320, 308)}")  # parsed: no libm pow


def _operand(rng: random.Random, kind: str):
    if kind == "scalar":
        return _number(rng)
    size, units = (4, UNIT_QUATS) if kind == "quat" else (3, UNIT_VECS)
    value = rng.choice(units) if rng.random() < 0.2 else [_number(rng) for _ in range(size)]
    if rng.random() < 0.05:
        return {"components": value, "params": rng.choice(PARAMS)}
    return value


def _request(rng: random.Random) -> dict:
    op = rng.choice(sorted(OPS))
    request = {"params": rng.choice(PARAMS), "op": op,
               "operands": [_operand(rng, kind) for kind in OPS[op].operands]}
    if OPS[op].ints:
        request["options"] = {key: rng.choice(INTS) for key in OPS[op].ints}
    return request


def _answer(request) -> tuple[int, str]:
    response, code = execute_request(request)
    out = io.StringIO()
    _emit(response, out)
    return code, out.getvalue().rstrip("\n")


def main(path: Path = OUT) -> None:
    rng = random.Random(SEED)
    lines = []
    requests = iter(FIXED)
    while len(lines) < COUNT:
        request = next(requests, None) or _request(rng)
        code, response = _answer(request)
        op = request.get("op") if isinstance(request, dict) else None
        if op in LIBM_FREE_OPS or json.loads(response).get("code") in BEFORE_ANGLE_CODES:
            lines.append(json.dumps({"request": request, "exit": code, "response": response}))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()

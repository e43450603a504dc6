"""Seeded NDJSON workload generator for ``gq3 batch``.

Each workload is a list of request lines plus, per line, the outcomes the
output checker accepts.  Lines are built in blocks of 100 whose composition
is fixed (only the order inside a block and the operand values depend on the
seed), so the share of every op and every expected error code is the same for
every seed and the failure count of a given program version does not move
with the seed.

The generator uses plain Python floats and never imports gq3: it decides the
expected outcome of a line from the operand values alone (null, elliptic,
unit, degenerate axis), so the expectation is independent of the code under
test.

Every workload carries a small fixed share of overflow lines: 1e200-magnitude
operands whose result leaves double range, for which the README documents
the ``non_finite`` error code.  Those the code answered wrongly when this
benchmark was written carry the ``OPEN`` marker (see ``KNOWN_OPEN``).
"""

from __future__ import annotations

import json
import math
import random

# The parameter families the test suite exercises (tests/helpers.FAMILIES),
# with the wire form each is sent in.
FAMILIES = [
    ((1.0, 1.0, 1.0), "hamilton"),
    ((1.0, 1.0, -1.0), "split"),
    ((1.0, 1.0, 0.0), "semi"),
    ((1.0, -1.0, 0.0), "split-semi"),
    ((1.0, 0.0, 0.0), "quarter"),
    ((2.0, 3.0, 5.0), "2,3,5"),
    ((1.0, 0.7, -1.3), [1.0, 0.7, -1.3]),
]
HAMILTON = FAMILIES[0]
SPLIT = FAMILIES[1]
SEMI = FAMILIES[2]
QUARTER = FAMILIES[4]
P235 = FAMILIES[5]

BLOCK = 100

OK = "ok"
OVERFLOW_OPS = ("norm", "dot", "det", "mul", "inverse")
# Overflow ops whose documented answer the code broke when this benchmark was
# written (ROADMAP item 2): norm, dot and det print Infinity; inverse and
# adjoint say zero_norm.  mul overflow was answered with non_finite.
KNOWN_OPEN = ("norm", "dot", "det", "inverse", "adjoint")
# Marks an accepted-outcome tuple of a KNOWN_OPEN line; never a real outcome.
OPEN = "open"


def err(code: str) -> str:
    return "error:" + code


# Per-block composition of each workload: (kind, count), counts sum to BLOCK.
# Why each workload exists is stated in BENCHMARK.json.
MIXES = {
    "batch_mixed": [
        ("mul", 16), ("add", 8), ("conj", 7), ("norm", 8), ("inverse", 8),
        ("dot", 8), ("wedge", 7), ("bracket", 7),
        ("left-matrix", 3), ("det", 3), ("eigenvalues", 3), ("polar", 3), ("pow", 2),
        # Failing by design, one kind per typed error code, beside the successes.
        ("zero_norm", 2), ("non_elliptic", 2), ("non_unit", 2), ("degenerate_axis", 2),
        ("param_mismatch", 2), ("not_positive_family", 2), ("bad_request", 3),
        ("overflow", 2),
    ],
    "batch_matrix": [
        ("roots", 20), ("matrix-pow", 20), ("adjoint", 20),
        ("killing-matrix", 14), ("eigenvectors", 25), ("overflow:adjoint", 1),
    ],
}
# Lines per workload file; mixed is the largest, so it carries peak memory.
SIZES = {"batch_mixed": 12000, "batch_matrix": 3000}


class _Gen:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.overflow_i = 0

    # --- operand sampling (plain floats) -----------------------------------

    def comps(self, k: int) -> list[float]:
        return [round(self.rng.gauss(0.0, 1.0), 12) for _ in range(k)]

    def family(self, choices=FAMILIES):
        return self.rng.choice(choices)

    def operand(self, comps: list[float]):
        # Mostly JSON arrays; some comma-separated literals, as the CLI allows.
        if self.rng.random() < 0.15:
            return ",".join(repr(c) for c in comps)
        return comps

    def invertible(self, lam) -> list[float]:
        while True:
            q = self.comps(4)
            n = _norm(q, lam)
            if abs(n) > 1e-2 * (1.0 + _mag2(q)):
                return q

    def elliptic(self, lam) -> list[float]:
        while True:
            q = self.comps(4)
            d = _disc(q, lam)
            if d > 0.05 * (1.0 + _mag2(q)):
                return q

    def unit_elliptic(self, lam) -> list[float]:
        q = self.elliptic(lam)
        s = math.sqrt(_norm(q, lam))
        return [c / s for c in q]

    # --- one line per kind --------------------------------------------------

    def line(self, kind: str):
        """Return (request object or raw text, accepted outcomes)."""
        lam, wire = self.family()
        if kind in ("mul", "add", "dot"):
            return self.req(wire, kind, [self.operand(self.comps(4)), self.operand(self.comps(4))]), (OK,)
        if kind in ("conj", "norm", "left-matrix", "det", "eigenvalues"):
            return self.req(wire, kind, [self.operand(self.comps(4))]), (OK,)
        if kind in ("wedge", "bracket"):
            return self.req(wire, kind, [self.comps(3), self.comps(3)]), (OK,)
        if kind == "inverse":
            return self.req(wire, kind, [self.operand(self.invertible(lam))]), (OK,)
        if kind in ("polar", "pow"):
            lam, wire = self.family([HAMILTON, SPLIT, SEMI, P235])
            q = self.elliptic(lam)
            opts = {"n": self.rng.randint(-3, 6)} if kind == "pow" else {}
            return self.req(wire, kind, [q], opts), (OK,)
        if kind in ("roots", "matrix-pow", "adjoint", "eigenvectors"):
            lam, wire = self.family([HAMILTON, P235])
            q = self.unit_elliptic(lam)
            opts = {"roots": {"n": 8}, "matrix-pow": {"n": self.rng.randint(-20, 20)}}.get(kind, {})
            return self.req(wire, kind, [q], opts), (OK,)
        if kind == "killing-matrix":
            lam, wire = self.family([HAMILTON, P235])
            return self.req(wire, kind, []), (OK,)
        if kind == "overflow":
            op = OVERFLOW_OPS[self.overflow_i % len(OVERFLOW_OPS)]
            self.overflow_i += 1
            return self.overflow(op)
        if kind.startswith("overflow:"):
            return self.overflow(kind.partition(":")[2])
        return self.fault(kind)

    def overflow(self, op: str):
        lam, wire = self.family([HAMILTON, P235])
        big = [self.rng.choice((-1.0, 1.0)) * self.rng.uniform(1.0, 9.0) * 1e200] + self.comps(3)
        operands = [big, [abs(big[0])] + self.comps(3)] if op in ("dot", "mul") else [big]
        # The inverse and the adjoint of a 1e200-magnitude operand are
        # representable, so a correct finite answer is accepted beside the
        # documented code.
        accepted = (err("non_finite"), OK) if op in ("inverse", "adjoint") else (err("non_finite"),)
        if op in KNOWN_OPEN:
            accepted += (OPEN,)
        return self.req(wire, op, operands), accepted

    def fault(self, code: str):
        rng = self.rng
        if code == "zero_norm":
            (lam, wire) = rng.choice([SPLIT, SEMI, QUARTER])
            r, a, b = rng.uniform(0.5, 2.0), rng.uniform(0, 6.28), rng.uniform(0, 6.28)
            if lam == SPLIT[0]:
                # a0^2 + a1^2 - a2^2 - a3^2 = 0
                q = [r * math.cos(a), r * math.sin(a), r * math.cos(b), r * math.sin(b)]
            elif lam == SEMI[0]:
                q = [0.0, 0.0, r * math.cos(b), r * math.sin(b)]
            else:
                q = [0.0] + self.comps(3)
            return self.req(wire, rng.choice(["inverse", "polar", "adjoint"]), [q]), (err(code),)
        if code == "non_elliptic":
            (lam, wire) = rng.choice([SPLIT, QUARTER])
            if lam == SPLIT[0]:
                # positive norm, negative axis discriminant a1^2 - a2^2 - a3^2
                q = [rng.uniform(3.0, 5.0), rng.uniform(-0.2, 0.2),
                     rng.uniform(0.8, 1.2), rng.uniform(-0.6, 0.6)]
            else:
                q = [rng.uniform(1.0, 2.0)] + self.comps(3)
            return self.req(wire, rng.choice(["polar", "pow"]), [q], {"n": 2}), (err(code),)
        if code == "non_unit":
            lam, wire = self.family([HAMILTON, P235])
            q = [2.0 * c for c in self.unit_elliptic(lam)]
            op = rng.choice(["roots", "period", "matrix-pow"])
            return self.req(wire, op, [q], {"n": 4}), (err(code),)
        if code == "degenerate_axis":
            lam, wire = self.family([HAMILTON, P235])
            q = self.comps(2) + [0.0, 0.0]
            return self.req(wire, "eigenvectors", [q]), (err(code),)
        if code == "param_mismatch":
            lam, wire = HAMILTON
            other = rng.choice(["2,3,5", "1,1,-1", "0.5,2,3"])
            a, b = self.comps(4), self.comps(4)
            if rng.random() < 0.5:
                foreign = ",".join(repr(c) for c in b) + "@" + other
            else:
                foreign = {"components": b, "params": other}
            op = rng.choice(["mul", "add", "dot"])
            return self.req(wire, op, [a, foreign]), (err(code),)
        if code == "not_positive_family":
            lam, wire = self.family([SPLIT, FAMILIES[3], FAMILIES[6]])
            return self.req(wire, "rodrigues", [self.comps(3), 0.5]), (err(code),)
        if code == "bad_request":
            return self.bad_request(), (err(code),)
        raise ValueError(code)

    def bad_request(self):
        q = self.comps(4)
        forms = [
            '{"params": "hamilton", "op": "mul", "operands": [%s' % json.dumps(q),
            self.req("hamilton", "frobnicate", [q]),
            self.req("hamilton", "mul", [q]),
            {"op": "norm", "operands": [q]},
            self.req("hamilton", "norm", ["1,2,x,4"]),
            self.req("hamilton", "norm", ["nan,0,0,0"]),
            self.req("hamilton", "pow", [q]),
            self.req("no-such-family", "norm", [q]),
            [1, 2, 3],
            self.req("hamilton", "roots", [q], {"n": 0}),
        ]
        return forms[self.rng.randrange(len(forms))]

    @staticmethod
    def req(params, op, operands, options=None) -> dict:
        out = {"params": params, "op": op, "operands": operands}
        if options:
            out["options"] = options
        return out


def _norm(q, lam) -> float:
    l1, l2, l3 = lam
    return q[0] * q[0] + l1 * l2 * q[1] * q[1] + l1 * l3 * q[2] * q[2] + l2 * l3 * q[3] * q[3]


def _disc(q, lam) -> float:
    return _norm(q, lam) - q[0] * q[0]


def _mag2(q) -> float:
    return sum(c * c for c in q)


def generate(workload: str, seed: int, lines: int | None = None):
    """Return (list of NDJSON request lines, list of accepted-outcome tuples).

    The same (workload, seed, lines) always gives byte-identical lines.
    """
    mix = MIXES[workload]
    total = SIZES[workload] if lines is None else lines
    gen = _Gen(seed)
    kinds = [kind for kind, count in mix for _ in range(count)]
    texts, expect = [], []
    while len(texts) < total:
        block = list(kinds)
        gen.rng.shuffle(block)
        for kind in block[: total - len(texts)]:
            request, accepted = gen.line(kind)
            texts.append(request if isinstance(request, str)
                         else json.dumps(request, separators=(",", ":")))
            expect.append(accepted)
    return texts, expect


def write(path, texts) -> int:
    """Write the lines as an NDJSON file; return its size in bytes."""
    data = ("\n".join(texts) + "\n").encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(data)
    return len(data)

"""Output checker for ``gq3 batch`` responses.

Runs outside every timed region.  A response line fails when:

* it does not parse as strict JSON (``Infinity`` and ``NaN`` are rejected);
* there are fewer or more responses than requests;
* its status or error code is not one the generator accepts for that line;
* an ``ok`` value disagrees with an independent route by more than
  ``TOL`` times the magnitude of the numbers involved (at least 1).

The independent routes are the term-by-term product ``oracle.mul_by_table``,
``oracle.pow_by_repetition``, ``oracle.conjugation_columns`` and identities
(``det == norm**2``, ``root**degree == left matrix`` for ``degree`` distinct
roots, ``L v == t v`` for four independent vectors whose values solve
``t**2 - 2 a0 t + N(p) == 0``, the Killing form as the trace of products of
bracket matrices), all built from the table product rather than from the
closed forms under test.

Overflow lines marked ``workloads.OPEN`` are the README's ``non_finite``
contract on ops the code broke when this benchmark was written; their
failures count in ``failed`` like any other, but are reported apart as
``open`` so that a caller can tell a known open defect from a regression.
"""

from __future__ import annotations

import json
import math

import numpy as np

from gq3 import oracle
from gq3.core import GQuat, ParamTriple
from workloads import OPEN

TOL = 1e-9
# Least ratio of smallest to largest singular value of the four normalised
# eigenvectors that counts them as independent.
EIG_INDEPENDENT = 1e-6

_NAMED = {
    "hamilton": (1.0, 1.0, 1.0),
    "split": (1.0, 1.0, -1.0),
    "semi": (1.0, 1.0, 0.0),
    "split-semi": (1.0, -1.0, 0.0),
    "quarter": (1.0, 0.0, 0.0),
}


class Mismatch(Exception):
    pass


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_loads(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def _params(value) -> ParamTriple:
    if isinstance(value, list):
        return ParamTriple(*map(float, value))
    if "," in value:
        return ParamTriple(*map(float, value.split(",")))
    return ParamTriple(*_NAMED[value])


def _comps(value) -> list[float]:
    if isinstance(value, str):
        return [float(x) for x in value.split(",")]
    return [float(x) for x in value]


def _quat(value, pr) -> GQuat:
    return GQuat(*_comps(value), pr)


def _vquat(value, pr) -> GQuat:
    return GQuat(0.0, *_comps(value), pr)


def _basis(j, pr) -> GQuat:
    c = [0.0, 0.0, 0.0, 0.0]
    c[j] = 1.0
    return GQuat(*c, pr)


def _conj(p: GQuat) -> GQuat:
    return GQuat(p.a0, -p.a1, -p.a2, -p.a3, p.params)


def _table_norm(p: GQuat) -> float:
    return oracle.mul_by_table(p, _conj(p)).a0


def _left(p: GQuat) -> np.ndarray:
    cols = [oracle.mul_by_table(p, _basis(j, p.params)).components for j in range(4)]
    return np.array(cols, dtype=float).T


def _ad(x: GQuat) -> np.ndarray:
    cols = []
    for j in (1, 2, 3):
        e = _basis(j, x.params)
        c = oracle.mul_by_table(x, e).components
        d = oracle.mul_by_table(e, x).components
        cols.append([c[i] - d[i] for i in (1, 2, 3)])
    return np.array(cols, dtype=float).T


def _scale(*values) -> float:
    return max(1.0, *(float(np.max(np.abs(v))) for v in values))


def _wmax(pr: ParamTriple) -> float:
    return max(1.0, abs(pr.l12), abs(pr.l13), abs(pr.l23))


def _close(got, want, scale=None):
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    if got.shape != want.shape:
        raise Mismatch(f"shape {got.shape} != {want.shape}")
    if scale is None:
        scale = _scale(np.abs(got), np.abs(want))
    err = float(np.abs(got - want).max()) if got.size else 0.0
    if not err <= TOL * scale:
        raise Mismatch(f"off by {err:.3g} (allowed {TOL * scale:.3g})")


def _cplx(pair) -> complex:
    re, im = pair
    return complex(float(re), float(im))


def check_value(request: dict, result: dict) -> None:
    """Raise Mismatch unless ``result`` agrees with an independent route."""
    op = request["op"]
    pr = _params(request["params"])
    ops = request.get("operands", [])
    opts = request.get("options") or {}
    if op in ("mul", "add", "dot"):
        p, q = _quat(ops[0], pr), _quat(ops[1], pr)
        if op == "mul":
            _close(result["quat"], oracle.mul_by_table(p, q).components)
        elif op == "add":
            _close(result["quat"], [a + b for a, b in zip(p.components, q.components)])
        else:
            want = oracle.mul_by_table(p, _conj(q)).a0
            _close(result["scalar"], want, _scale(abs(want), *map(abs, p.components + q.components)) ** 2)
    elif op == "conj":
        p = _quat(ops[0], pr)
        _close(result["quat"], _conj(p).components)
    elif op == "norm":
        p = _quat(ops[0], pr)
        _close(result["scalar"], _table_norm(p), _scale(*map(abs, p.components)) ** 2 * _wmax(pr))
    elif op == "inverse":
        p = _quat(ops[0], pr)
        r = GQuat(*result["quat"], pr)
        _close(oracle.mul_by_table(p, r).components, [1.0, 0.0, 0.0, 0.0],
               _scale(*map(abs, p.components)) * _scale(*map(abs, r.components)) * _wmax(pr))
    elif op in ("wedge", "bracket"):
        u, v = _vquat(ops[0], pr), _vquat(ops[1], pr)
        uv = oracle.mul_by_table(u, v).components
        vu = oracle.mul_by_table(v, u).components
        factor = 0.5 if op == "wedge" else 1.0
        _close(result["vector"], [factor * (uv[i] - vu[i]) for i in (1, 2, 3)],
               _scale(*map(abs, u.components + v.components)) ** 2 * _wmax(pr))
    elif op == "left-matrix":
        p = _quat(ops[0], pr)
        _close(result["mat4"], _left(p))
    elif op == "det":
        p = _quat(ops[0], pr)
        n = _table_norm(p)
        _close(result["scalar"], n * n, (_scale(*map(abs, p.components)) ** 2 * _wmax(pr)) ** 2)
    elif op == "eigenvalues":
        p = _quat(ops[0], pr)
        z1, z2 = (_cplx(z) for z in result["complex_pair"])
        n = _table_norm(p)
        s = _scale(*map(abs, p.components)) ** 2 * _wmax(pr)
        _close([z1 + z2, z1 * z2], [2.0 * p.a0, n], s)
    elif op == "polar":
        p = _quat(ops[0], pr)
        form = result["polar"]
        mod, theta, axis = form["modulus"], form["theta"], form["axis"]
        if not (mod > 0.0 and 0.0 <= theta <= math.pi):
            raise Mismatch(f"modulus {mod} / theta {theta} out of range")
        a = _vquat(axis, pr)
        _close(_table_norm(a), 1.0)
        s = mod * math.sin(theta)
        _close([mod * math.cos(theta), s * a.a1, s * a.a2, s * a.a3], p.components,
               _scale(*map(abs, p.components)))
    elif op == "pow":
        p = _quat(ops[0], pr)
        want = oracle.pow_by_repetition(p, opts["n"]).components
        _close(result["quat"], want, _scale(*map(abs, want)))
    elif op == "matrix-pow":
        p = _quat(ops[0], pr)
        _close(result["mat4"], _left(oracle.pow_by_repetition(p, opts["n"])))
    elif op == "roots":
        p = _quat(ops[0], pr)
        roots = result["roots"]
        n = opts["n"]
        if roots["degree"] != n or len(roots["matrices"]) != n:
            raise Mismatch(f"expected {n} roots, got {roots['degree']}/{len(roots['matrices'])}")
        want = _left(p)
        mats = [np.array(m, dtype=float) for m in roots["matrices"]]
        for m in mats:
            _close(np.linalg.matrix_power(m, n), want)
        for i, a in enumerate(mats):
            for b in mats[:i]:
                if not float(np.abs(a - b).max()) > TOL * _scale(np.abs(a), np.abs(b)):
                    raise Mismatch("two roots coincide")
    elif op == "adjoint":
        # Conjugation is scale-invariant; scaling keeps the route finite.
        p = _quat(ops[0], pr)
        s = _scale(*map(abs, p.components))
        _close(result["mat3"], oracle.conjugation_columns(GQuat(*(c / s for c in p.components), pr)))
    elif op == "killing-matrix":
        ads = [_ad(_basis(j, pr)) for j in (1, 2, 3)]
        _close(result["mat3"], [[np.trace(a @ b) for b in ads] for a in ads],
               _scale(np.abs(ads)) ** 2)
    elif op == "eigenvectors":
        p = _quat(ops[0], pr)
        left = _left(p)
        pairs = result["eigenvectors"]
        if len(pairs) != 4:
            raise Mismatch(f"expected 4 eigenvectors, got {len(pairs)}")
        n = _table_norm(p)
        vectors = []
        for pair in pairs:
            t = _cplx(pair["value"])
            _close(t * t - 2.0 * p.a0 * t + n, 0.0, _scale(abs(t), abs(p.a0)) ** 2 + abs(n))
            v = np.array([_cplx(z) for z in pair["vector"]])
            size = float(np.abs(v).max())
            if not size > TOL:
                raise Mismatch(f"eigenvector of size {size:.3g}")
            v = v / size
            _close(left @ v, t * v, _scale(np.abs(left)))
            vectors.append(v)
        sv = np.linalg.svd(np.array(vectors), compute_uv=False)
        if not sv[-1] > EIG_INDEPENDENT * sv[0]:
            raise Mismatch(f"eigenvectors not independent (singular values {sv[-1]:.3g}/{sv[0]:.3g})")
    else:
        raise Mismatch(f"no independent route for op {op!r}")


def check_line(request_text: str, accepted: tuple, response_text: str) -> str | None:
    """Return None when the response passes, else a one-line reason."""
    try:
        response = strict_loads(response_text)
    except ValueError as exc:
        return f"not strict JSON: {exc}"
    if not isinstance(response, dict):
        return "response is not an object"
    status = response.get("status")
    outcome = "ok" if status == "ok" else f"error:{response.get('code')}"
    if outcome not in accepted:
        return f"got {outcome}, expected {' or '.join(a for a in accepted if a != OPEN)}"
    if status != "ok":
        return None if isinstance(response.get("message"), str) else "error without message"
    request = json.loads(request_text)
    try:
        check_value(request, response["result"])
    except Mismatch as exc:
        return f"{request['op']}: {exc}"
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        return f"malformed ok result: {type(exc).__name__}: {exc}"
    return None


class Report:
    """Outcome of checking one output against its requests."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.open = 0          # failures on lines marked OPEN
        self.reasons: dict[str, int] = {}
        self.first: list[tuple[int, str]] = []

    @property
    def unexpected(self) -> int:
        """Failures on lines not marked OPEN."""
        return self.failed - self.open

    def add(self, index: int, accepted: tuple, reason: str) -> None:
        self.failed += 1
        if OPEN in accepted:
            self.open += 1
        key = reason if reason.startswith(("not strict", "got ")) else reason.split(":")[0]
        self.reasons[key] = self.reasons.get(key, 0) + 1
        if len(self.first) < 10:
            self.first.append((index, reason))

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "open": self.open,
                "unexpected": self.unexpected, "reasons": self.reasons,
                "first_failures": self.first}


def check_output(texts: list[str], expect: list[tuple], output: str) -> Report:
    """Check a whole batch output against the generated requests."""
    report = Report()
    responses = output.splitlines()
    report.attempted = len(texts)
    if len(responses) > len(texts):
        for i, accepted in enumerate(expect):
            report.add(i, accepted, f"{len(responses)} responses for {len(texts)} requests")
        return report
    for i, (text, accepted) in enumerate(zip(texts, expect)):
        if i >= len(responses):
            report.add(i, accepted, "missing response")
            continue
        reason = check_line(text, accepted, responses[i])
        if reason is not None:
            report.add(i, accepted, reason)
    return report

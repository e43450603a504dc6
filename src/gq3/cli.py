"""Command-line front end emitting machine-readable JSON.

Single-shot usage picks the algebra with ``--params`` or ``--family``, names
an operation and passes operands as comma-separated literals::

    gq3 --family hamilton mul "1,0,0,0" "0,1,0,0"
    gq3 --params 1,1,1 pow "-0.5,0.5,0.5,0.5" --n 21

Batch usage reads newline-delimited JSON requests from a file and writes one
response line per request, in order, without stopping at failures::

    gq3 batch requests.ndjson

stdout carries only JSON; diagnostics go to stderr.  Exit codes: 0 success,
1 domain error, 2 malformed input.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from . import lie, matrices, polar
from .core import (
    GQuat,
    GVec3,
    ParamTriple,
    bilinear_f,
    family,
    wedge,
    wedge_triple_left,
    wedge_triple_right,
)
from .errors import AlgebraError

__all__ = ["main", "console_main", "execute_request", "OPS"]

EXIT_OK = 0
EXIT_DOMAIN_ERROR = 1
EXIT_USAGE = 2


class RequestError(Exception):
    """Malformed request: unknown op, bad literal, wrong arity, missing option."""


# --- operand and parameter parsing ------------------------------------------


def _parse_numbers(text: str, count: int, what: str) -> list[float]:
    parts = [piece.strip() for piece in text.split(",")]
    if len(parts) != count:
        raise RequestError(f"{what} needs {count} comma-separated numbers, got {text!r}")
    try:
        return [float(piece) for piece in parts]
    except ValueError:
        raise RequestError(f"{what} has a non-numeric component: {text!r}") from None


def parse_params(value: Any) -> ParamTriple:
    """Accept [l1, l2, l3], "l1,l2,l3", a family name, or "2param:l,m"."""
    if isinstance(value, ParamTriple):
        return value
    if isinstance(value, (list, tuple)):
        if len(value) != 3:
            raise RequestError(f"params list needs 3 entries, got {value!r}")
        try:
            return ParamTriple(*[float(v) for v in value])
        except (TypeError, ValueError) as exc:
            raise RequestError(f"bad params {value!r}: {exc}") from None
    if isinstance(value, str):
        text = value.strip()
        if ":" in text:
            name, _, rest = text.partition(":")
            values = _parse_numbers(rest, 2, "2param parameters")
            try:
                return family(name, *values)
            except ValueError as exc:
                raise RequestError(str(exc)) from None
        if any(ch.isdigit() for ch in text) and "," in text:
            return ParamTriple(*_parse_numbers(text, 3, "params"))
        try:
            return family(text)
        except ValueError as exc:
            raise RequestError(str(exc)) from None
    raise RequestError(f"cannot interpret params {value!r}")


def _split_operand_params(value: Any, params: ParamTriple) -> tuple[Any, ParamTriple]:
    # An operand may carry its own triple: "0,1,0,0@2,3,5" on the command
    # line, {"components": ..., "params": ...} in batch requests.  Mixing
    # triples is then reported by the library as a domain error.
    if isinstance(value, dict):
        if set(value) - {"components", "params"}:
            raise RequestError(f"operand object allows keys components/params, got {value!r}")
        if "components" not in value:
            raise RequestError(f"operand object needs 'components': {value!r}")
        own = parse_params(value["params"]) if "params" in value else params
        return value["components"], own
    if isinstance(value, str) and "@" in value:
        literal, _, suffix = value.partition("@")
        return literal, parse_params(suffix)
    return value, params


def _coerce_quat(value: Any, params: ParamTriple) -> GQuat:
    value, params = _split_operand_params(value, params)
    if isinstance(value, str):
        return GQuat.from_components(_parse_numbers(value, 4, "quaternion"), params)
    if isinstance(value, (list, tuple)) and len(value) == 4:
        try:
            return GQuat.from_components([float(v) for v in value], params)
        except (TypeError, ValueError) as exc:
            raise RequestError(f"bad quaternion {value!r}: {exc}") from None
    raise RequestError(f"expected a quaternion (4 components), got {value!r}")


def _coerce_vec(value: Any, params: ParamTriple) -> GVec3:
    value, params = _split_operand_params(value, params)
    if isinstance(value, str):
        return GVec3.from_components(_parse_numbers(value, 3, "vector"), params)
    if isinstance(value, (list, tuple)) and len(value) == 3:
        try:
            return GVec3.from_components([float(v) for v in value], params)
        except (TypeError, ValueError) as exc:
            raise RequestError(f"bad vector {value!r}: {exc}") from None
    raise RequestError(f"expected a vector (3 components), got {value!r}")


def _coerce_scalar(value: Any, params: ParamTriple) -> float:
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            raise RequestError(f"expected a number, got {value!r}") from None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise RequestError(f"expected a number, got {value!r}")


_COERCERS = {"quat": _coerce_quat, "vec": _coerce_vec, "scalar": _coerce_scalar}


def _require_int_option(options: dict, key: str) -> int:
    if key not in options or options[key] is None:
        raise RequestError(f"operation needs option --{key}")
    value = options[key]
    if isinstance(value, bool) or not isinstance(value, int):
        if isinstance(value, float) and value.is_integer():
            return int(value)
        raise RequestError(f"option --{key} must be an integer, got {value!r}")
    return value


# --- JSON encoding of results ------------------------------------------------


def _quat_json(q: GQuat) -> dict:
    return {"quat": list(q.components)}


def _vec_json(v: GVec3) -> dict:
    return {"vector": list(v.components)}


def _mat_json(kind: str, m) -> dict:
    return {kind: m.rows()}


def _complex_json(z: complex) -> list[float]:
    return [z.real, z.imag]


def _polar_json(form: polar.PolarForm) -> dict:
    return {"polar": {
        "modulus": form.modulus,
        "theta": form.theta,
        "axis": list(form.axis.components) if form.axis is not None else None,
    }}


# --- operation registry -------------------------------------------------------


@dataclass(frozen=True)
class OpSpec:
    operands: tuple[str, ...]
    run: Callable[[ParamTriple, list, dict], dict]
    summary: str


def _tols(options: dict) -> dict:
    tol = options.get("tolerance")
    if tol is None:
        return {}
    try:
        return {"tol": float(tol)}
    except (TypeError, ValueError):
        raise RequestError(f"tolerance must be a number, got {tol!r}") from None


def _build_ops() -> dict[str, OpSpec]:
    ops: dict[str, OpSpec] = {}

    def op(name: str, operands: tuple[str, ...], summary: str):
        def register(fn):
            ops[name] = OpSpec(operands, fn, summary)
            return fn
        return register

    @op("add", ("quat", "quat"), "componentwise sum")
    def _add(params, args, options):
        return _quat_json(args[0] + args[1])

    @op("sub", ("quat", "quat"), "componentwise difference")
    def _sub(params, args, options):
        return _quat_json(args[0] - args[1])

    @op("scale", ("scalar", "quat"), "scalar multiple")
    def _scale(params, args, options):
        return _quat_json(args[1].scale(args[0]))

    @op("mul", ("quat", "quat"), "algebra product")
    def _mul(params, args, options):
        return _quat_json(args[0] * args[1])

    @op("conj", ("quat",), "conjugate")
    def _conj(params, args, options):
        return _quat_json(args[0].conj())

    @op("norm", ("quat",), "indefinite norm")
    def _norm(params, args, options):
        return {"scalar": args[0].norm()}

    @op("inverse", ("quat",), "multiplicative inverse")
    def _inverse(params, args, options):
        return _quat_json(args[0].inverse())

    @op("dot", ("quat", "quat"), "scalar product")
    def _dot(params, args, options):
        return {"scalar": args[0].dot(args[1])}

    @op("bilinear", ("vec", "vec"), "bilinear form on vectors")
    def _bilinear(params, args, options):
        return {"scalar": bilinear_f(args[0], args[1])}

    @op("wedge", ("vec", "vec"), "weighted cross product")
    def _wedge(params, args, options):
        return _vec_json(wedge(args[0], args[1]))

    @op("wedge-triple-left", ("vec", "vec", "vec"), "p ^ (q ^ r)")
    def _wtl(params, args, options):
        return _vec_json(wedge_triple_left(*args))

    @op("wedge-triple-right", ("vec", "vec", "vec"), "(p ^ q) ^ r")
    def _wtr(params, args, options):
        return _vec_json(wedge_triple_right(*args))

    @op("left-matrix", ("quat",), "left-multiplication matrix")
    def _left(params, args, options):
        return _mat_json("mat4", matrices.left_matrix(args[0]))

    @op("right-matrix", ("quat",), "right-multiplication matrix")
    def _right(params, args, options):
        return _mat_json("mat4", matrices.right_matrix(args[0]))

    @op("base-matrices", (), "matrices of the basis elements")
    def _base(params, args, options):
        mats = matrices.base_matrices(params)
        return {"mat4_list": [m.rows() for m in mats]}

    @op("det", ("quat",), "determinant of the left matrix")
    def _det(params, args, options):
        return {"scalar": matrices.det4(matrices.left_matrix(args[0]))}

    @op("char-poly", ("quat",), "characteristic polynomial")
    def _charpoly(params, args, options):
        cp = matrices.char_poly(args[0])
        return {"char_poly": {"coefficients": list(cp.coefficients),
                              "quadratic": list(cp.quadratic)}}

    @op("eigenvalues", ("quat",), "eigenvalues of the left matrix")
    def _eigvals(params, args, options):
        # two conjugate values, each of algebraic multiplicity two
        pair = matrices.eigenvalues(args[0])
        return {"complex_pair": [_complex_json(e.value) for e in pair]}

    @op("eigenvectors", ("quat",), "closed-form eigenvectors")
    def _eigvecs(params, args, options):
        pairs = matrices.eigenvectors(args[0])
        return {"eigenvectors": [
            {"value": _complex_json(e.value),
             "vector": [_complex_json(z) for z in e.vector]}
            for e in pairs
        ]}

    @op("polar", ("quat",), "polar decomposition")
    def _polar(params, args, options):
        return _polar_json(polar.to_polar(args[0]))

    @op("pow", ("quat",), "integer power by the angle map (needs --n)")
    def _pow(params, args, options):
        n = _require_int_option(options, "n")
        return _quat_json(polar.demoivre_pow(args[0], n))

    @op("matrix-pow", ("quat",), "matrix power for unit input (needs --n)")
    def _mpow(params, args, options):
        n = _require_int_option(options, "n")
        kw = _tols(options)
        if kw:
            return _mat_json("mat4", polar.matrix_pow(args[0], n, unit_tol=kw["tol"]))
        return _mat_json("mat4", polar.matrix_pow(args[0], n))

    @op("exp", ("vec", "scalar"), "exponential of a unit direction and angle")
    def _exp(params, args, options):
        kw = _tols(options)
        if kw:
            return _quat_json(polar.euler_exp(args[0], args[1], axis_tol=kw["tol"]))
        return _quat_json(polar.euler_exp(args[0], args[1]))

    @op("exp-matrix", ("vec", "scalar"), "matrix exponential form")
    def _expm(params, args, options):
        kw = _tols(options)
        if kw:
            return _mat_json("mat4", polar.euler_exp_matrix(args[0], args[1], axis_tol=kw["tol"]))
        return _mat_json("mat4", polar.euler_exp_matrix(args[0], args[1]))

    @op("roots", ("quat",), "all nth matrix roots for unit input (needs --n)")
    def _roots(params, args, options):
        n = _require_int_option(options, "n")
        if n < 1:
            raise RequestError(f"root degree must be >= 1, got {n}")
        kw = _tols(options)
        rs = (polar.matrix_roots(args[0], n, unit_tol=kw["tol"]) if kw
              else polar.matrix_roots(args[0], n))
        return {"roots": {"degree": rs.degree, "matrices": [m.rows() for m in rs.roots]}}

    @op("period", ("quat",), "power period of a unit elliptic quaternion")
    def _period(params, args, options):
        kw = _tols(options)
        m = (polar.power_period(args[0], unit_tol=kw["tol"]) if kw
             else polar.power_period(args[0]))
        return {"period": m}

    @op("scaled-pow", ("quat",), "reduce p^n to modulus^(n-s) p^s (needs --n, --s)")
    def _spow(params, args, options):
        n = _require_int_option(options, "n")
        s = _require_int_option(options, "s")
        return _quat_json(polar.scaled_power_relation(args[0], n, s))

    @op("bracket", ("vec", "vec"), "Lie bracket")
    def _bracket(params, args, options):
        return _vec_json(lie.bracket(args[0], args[1]))

    @op("adjoint", ("quat",), "conjugation action on vectors")
    def _adjoint(params, args, options):
        return _mat_json("mat3", lie.adjoint_group(args[0]))

    @op("skew", ("vec",), "weighted skew matrix")
    def _skew(params, args, options):
        return _mat_json("mat3", lie.skew_of_axis(args[0]))

    @op("rodrigues", ("vec", "scalar"), "adjoint from axis and angle")
    def _rodrigues(params, args, options):
        kw = _tols(options)
        if kw:
            return _mat_json("mat3", lie.adjoint_rodrigues(args[0], args[1], axis_tol=kw["tol"]))
        return _mat_json("mat3", lie.adjoint_rodrigues(args[0], args[1]))

    @op("ad", ("vec",), "bracket action matrix")
    def _ad(params, args, options):
        return _mat_json("mat3", lie.ad_matrix(args[0]))

    @op("killing", ("vec", "vec"), "Killing form value")
    def _killing(params, args, options):
        return {"scalar": lie.killing_form(args[0], args[1])}

    @op("killing-matrix", (), "Killing form over the vector basis")
    def _killmat(params, args, options):
        return _mat_json("mat3", lie.killing_matrix(params))

    @op("epsilon", (), "diagonal metric on vectors")
    def _epsilon(params, args, options):
        return _mat_json("mat3", lie.metric_eps(params))

    @op("compact", (), "is the unit group compact")
    def _compact(params, args, options):
        return {"bool": lie.is_compact(params)}

    return ops


OPS = _build_ops()


# --- request execution --------------------------------------------------------


def execute_request(request: dict) -> tuple[dict, int]:
    """Run one request dict; return (response dict, exit code)."""
    try:
        if not isinstance(request, dict):
            raise RequestError("request must be a JSON object")
        op_name = request.get("op")
        if not isinstance(op_name, str) or op_name not in OPS:
            raise RequestError(f"unknown operation {op_name!r}")
        op = OPS[op_name]
        params_field = request.get("params")
        if params_field is None:
            raise RequestError("request needs params (triple or family name)")
        params = parse_params(params_field)
        raw_operands = request.get("operands", [])
        if not isinstance(raw_operands, list):
            raise RequestError("operands must be a list")
        if len(raw_operands) != len(op.operands):
            raise RequestError(
                f"operation {op_name!r} needs {len(op.operands)} operand(s), "
                f"got {len(raw_operands)}")
        options = request.get("options", {})
        if options is None:
            options = {}
        if not isinstance(options, dict):
            raise RequestError("options must be an object")
        operands = [
            _COERCERS[kind](value, params)
            for kind, value in zip(op.operands, raw_operands)
        ]
    except (RequestError, ValueError, TypeError) as exc:
        # includes literals that parse as floats but are not finite ("nan")
        return {"status": "error", "code": "bad_request", "message": str(exc)}, EXIT_USAGE

    try:
        result = op.run(params, operands, options)
    except RequestError as exc:
        return {"status": "error", "code": "bad_request", "message": str(exc)}, EXIT_USAGE
    except AlgebraError as exc:
        return {"status": "error", "code": exc.code, "message": str(exc)}, EXIT_DOMAIN_ERROR
    except (ValueError, OverflowError) as exc:
        # finite operands whose result left double range (construction rejects
        # non-finite components); report instead of crashing
        return {"status": "error", "code": "non_finite", "message": str(exc)}, EXIT_DOMAIN_ERROR
    return {"status": "ok", "result": result}, EXIT_OK


def _emit(response: dict, out) -> None:
    # json.dumps runs the C encoder; json.dump would run the pure-Python one
    # and write once per token.  The bytes are the same.
    out.write(json.dumps(response, separators=(",", ":")) + "\n")


def _run_batch(path: str, out, err) -> int:
    try:
        handle = open(path, "r", encoding="utf-8")
    except OSError as exc:
        print(f"gq3: cannot read batch file: {exc}", file=err)
        return EXIT_USAGE

    with handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                request = json.loads(line)
            except json.JSONDecodeError as exc:
                _emit({"status": "error", "code": "bad_request",
                       "message": f"invalid JSON: {exc}"}, out)
                continue
            response, _ = execute_request(request)
            _emit(response, out)
    return EXIT_OK


_USAGE = """\
usage: gq3 [--params L1,L2,L3 | --family NAME] OP [OPERANDS...] [--n N] [--s S] [--tol TOL]
       gq3 batch FILE

Operands are comma-separated literals: quaternions "a0,a1,a2,a3", vectors
"a1,a2,a3", plain numbers for scalars.  Families: hamilton, split, semi,
split-semi, quarter, 2param:l,m.  Batch files hold one JSON request per line.
"""


class _ArgvError(Exception):
    pass


def _parse_argv(argv: Sequence[str]) -> dict:
    """Tiny hand-rolled argv walker.

    Not argparse: operand literals such as "-0.5,0.5,0.5,0.5" begin with a
    dash and argparse would reject them as unknown options.  Grammar is
    flags (each taking one value), then the op name, then operands, in any
    interleaving.
    """
    flags = {"--params": "params", "--family": "family", "--n": "n",
             "--s": "s", "--tol": "tolerance"}
    parsed: dict[str, Any] = {"params": None, "family": None, "n": None,
                              "s": None, "tolerance": None,
                              "op": None, "operands": []}
    i = 0
    while i < len(argv):
        token = argv[i]
        if token in ("-h", "--help"):
            parsed["help"] = True
            i += 1
            continue
        if token in flags:
            if i + 1 >= len(argv):
                raise _ArgvError(f"{token} needs a value")
            parsed[flags[token]] = argv[i + 1]
            i += 2
            continue
        if token.startswith("--"):
            raise _ArgvError(f"unknown option {token!r}")
        if parsed["op"] is None:
            parsed["op"] = token
        else:
            parsed["operands"].append(token)
        i += 1
    return parsed


def main(argv: Sequence[str] | None = None, *, stdout=None, stderr=None) -> int:
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    if argv is None:
        argv = sys.argv[1:]

    try:
        ns = _parse_argv(argv)
    except _ArgvError as exc:
        print(f"gq3: {exc}", file=err)
        print(_USAGE, file=err, end="")
        return EXIT_USAGE

    if ns.get("help") or ns["op"] is None:
        print(_USAGE, file=err, end="")
        return EXIT_OK if ns.get("help") else EXIT_USAGE

    if ns["op"] == "batch":
        if ns["params"] or ns["family"]:
            print("gq3: batch requests carry their own params; "
                  "--params/--family not allowed", file=err)
            return EXIT_USAGE
        if len(ns["operands"]) != 1:
            print("gq3: batch needs exactly one file path", file=err)
            return EXIT_USAGE
        return _run_batch(ns["operands"][0], out, err)

    if ns["op"] not in OPS:
        print(f"gq3: unknown operation {ns['op']!r}; known: {', '.join(sorted(OPS))}", file=err)
        return EXIT_USAGE

    if not ns["params"] and not ns["family"]:
        print("gq3: pick an algebra with --params or --family", file=err)
        return EXIT_USAGE
    if ns["params"] and ns["family"]:
        print("gq3: --params and --family are mutually exclusive", file=err)
        return EXIT_USAGE

    options: dict[str, Any] = {}
    for key in ("n", "s"):
        if ns[key] is not None:
            try:
                options[key] = int(ns[key])
            except ValueError:
                print(f"gq3: --{key} must be an integer, got {ns[key]!r}", file=err)
                return EXIT_USAGE
    if ns["tolerance"] is not None:
        try:
            options["tolerance"] = float(ns["tolerance"])
        except ValueError:
            print(f"gq3: --tol must be a number, got {ns['tolerance']!r}", file=err)
            return EXIT_USAGE

    request = {
        "params": ns["params"] if ns["params"] else ns["family"],
        "op": ns["op"],
        "operands": list(ns["operands"]),
        "options": options,
    }
    response, code = execute_request(request)
    if code == EXIT_USAGE:
        # Malformed single-shot input: diagnostics on stderr, nothing on stdout.
        print(f"gq3: {response['message']}", file=err)
        return EXIT_USAGE
    _emit(response, out)
    return code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()

"""Command-line front end emitting machine-readable JSON.

Single-shot usage picks the algebra with ``--params`` or ``--family``, names
an operation and passes operands as comma-separated literals::

    gq3 --family hamilton mul "1,0,0,0" "0,1,0,0"
    gq3 --params 1,1,1 pow "-0.5,0.5,0.5,0.5" --n 21

Batch usage reads newline-delimited JSON requests from a file (``-``: stdin)
and writes one response line per request, in order, without stopping at failures::

    gq3 batch requests.ndjson

stdout carries only JSON; diagnostics go to stderr.  Exit codes: 0 success,
1 domain error, 2 malformed input.
"""

from __future__ import annotations

import cmath
import contextlib
import json
import math
import operator
import struct
import sys
from collections.abc import Callable, Sequence

# The op table names its library functions as text ("polar.matrix_pow",
# "wedge"), resolved in this module's namespace: these imports serve it.
from . import lie, matrices, polar
from .core import (
    GQuat,
    GVec3,
    ParamTriple,
    _Record,
    bilinear_f,
    family,
    wedge,
    wedge_triple_left,
    wedge_triple_right,
)
from .errors import AlgebraError, NonFinite

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


_TRIPLES: dict[str | bytes, ParamTriple] = {}  # see parse_params
_TRIPLES_MAX = 64
_PACK3 = struct.Struct("3d")


def parse_params(value: object) -> ParamTriple:
    """Accept [l1, l2, l3], "l1,l2,l3", a family name, or "2param:l,m".

    Successful parses are kept in ``_TRIPLES``, cleared when it holds ``_TRIPLES_MAX``, so
    a batch over a few algebras builds each triple once.  A string keys itself, a list the
    bytes of its three doubles, which tell -0.0 from 0.0 (equal, but printed differently).
    """
    try:
        key = value if isinstance(value, str) else _PACK3.pack(*value)
    except (TypeError, OverflowError, struct.error):
        return _parse_params(value)
    params = _TRIPLES.get(key)
    if params is None:
        if len(_TRIPLES) >= _TRIPLES_MAX:
            _TRIPLES.clear()
        params = _TRIPLES[key] = _parse_params(value)
    return params


def _parse_params(value: object) -> ParamTriple:
    if isinstance(value, (list, tuple)):
        if len(value) != 3:
            raise RequestError(f"params list needs 3 entries, got {value!r}")
        try:
            return ParamTriple(*[float(v) for v in value])
        except (TypeError, ValueError, OverflowError) as exc:
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


# Operand kind -> (component count, value type, name used in messages).
_SHAPES = {"quat": (4, GQuat, "quaternion"), "vec": (3, GVec3, "vector")}


def _coerce(kind: str, value: object, params: ParamTriple):
    """Turn one operand literal of the given kind into a library value."""
    if kind == "scalar":
        return _coerce_scalar(value)
    size, cls, what = _SHAPES[kind]
    # An operand may carry its own triple: "0,1,0,0@2,3,5" on the command
    # line, {"components": ..., "params": ...} in batch requests.  Mixing
    # triples is then reported by the library as a domain error.
    if isinstance(value, dict):
        if set(value) - {"components", "params"}:
            raise RequestError(f"operand object allows keys components/params, got {value!r}")
        if "components" not in value:
            raise RequestError(f"operand object needs 'components': {value!r}")
        if "params" in value:
            params = parse_params(value["params"])
        value = value["components"]
    elif isinstance(value, str) and "@" in value:
        value, _, suffix = value.partition("@")
        params = parse_params(suffix)
    if isinstance(value, str):
        return cls(*_parse_numbers(value, size, what), params)
    if isinstance(value, (list, tuple)) and len(value) == size:
        try:
            return cls(*map(float, value), params)
        except (TypeError, ValueError) as exc:
            raise RequestError(f"bad {what} {value!r}: {exc}") from None
    raise RequestError(f"expected a {what} ({size} components), got {value!r}")


def _coerce_scalar(value: object) -> float:
    if isinstance(value, str):
        try:
            number = float(value)
        except ValueError:
            raise RequestError(f"expected a number, got {value!r}") from None
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        number = float(value)
    else:
        raise RequestError(f"expected a number, got {value!r}")
    # Rejected here like a non-finite quaternion component, not left to
    # surface as a domain error of the operation.
    if not math.isfinite(number):
        raise RequestError(f"expected a finite number, got {value!r}")
    return number


def _require_int_option(options: dict, key: str) -> int:
    if key not in options or options[key] is None:
        raise RequestError(f"operation needs option --{key}")
    value = options[key]
    if isinstance(value, bool) or not isinstance(value, int):
        if isinstance(value, float) and value.is_integer():
            return int(value)
        raise RequestError(f"option --{key} must be an integer, got {value!r}")
    return value


def _tolerance(options: dict, op_name: str, keyword: str | None) -> dict:
    """Keyword arguments carrying the request's tolerance, if it gives one.

    Without one the result is empty, so the library default applies.
    """
    tol = options.get("tolerance")
    if tol is None:
        return {}
    if keyword is None:
        raise RequestError(f"operation {op_name!r} takes no tolerance")
    if isinstance(tol, bool) or not isinstance(tol, (int, float)):
        raise RequestError(f"tolerance must be a number, got {tol!r}")
    value = float(tol)
    polar._check_tolerance(value, "tolerance")  # its ValueError is a bad_request
    return {keyword: value}


# --- JSON encoding of results ------------------------------------------------


def _components(x: GQuat | GVec3) -> list[float]:
    return list(x.components)


def _as_is(x):
    return x


# Quaternion, vector and matrix results were checked for finite entries when
# they were built; these two check the floats no constructor saw.
def _finite(x: float) -> float:
    if not math.isfinite(x):
        raise NonFinite(f"result {x} is not finite")
    return x


def _complex(z: complex) -> list[float]:
    if not cmath.isfinite(z):
        raise NonFinite(f"result {z} is not finite")
    return [z.real, z.imag]


# Result tag -> how the value under that tag is written.  Matrices are tuples
# of row tuples, which json writes as nested arrays.
_ENCODE: dict[str, Callable[[object], object]] = {
    "quat": _components,
    "vector": _components,
    "scalar": _finite,
    "bool": _as_is,
    "period": _as_is,
    "mat3": _as_is,
    "mat4": _as_is,
    "mat4_list": _as_is,
    "roots": lambda rs: {"degree": rs.degree, "matrices": rs.roots},
    "polar": lambda form: {
        "modulus": form.modulus,
        "theta": form.theta,
        "axis": list(form.axis.components) if form.axis is not None else None,
    },
    # two conjugate values, each of algebraic multiplicity two
    "complex_pair": lambda pair: [_complex(e.value) for e in pair],
    "eigenvectors": lambda pairs: [
        {"value": _complex(e.value), "vector": [_complex(z) for z in e.vector]}
        for e in pairs
    ],
    "char_poly": lambda cp: {"coefficients": list(map(_finite, cp.coefficients)),
                             "quadratic": list(map(_finite, cp.quadratic))},
}


# --- operation table -----------------------------------------------------------


class OpSpec(_Record):
    """One row of the operation table.

    The library function is attribute ``name`` of ``owner``, a module or
    class.  It is looked up on every request rather than bound once, so that
    rebinding the attribute (as a tracer does) reaches the CLI too.  It
    receives the operands in order (the request's parameter triple when the
    op has none), then the integer options named in ``ints``.  A request's
    tolerance is passed under the keyword that ``tol`` names (``unit_tol`` or
    ``axis_tol``); an op whose ``tol`` is None rejects it.  The result is
    written under ``tag``.
    """

    __match_args__ = ("operands", "summary", "owner", "name", "tag", "ints", "tol",
                      "root_degree")

    # root_degree: option n is a root degree, from 1 to polar.MAX_ROOT_DEGREE.
    def __init__(self, operands: tuple[str, ...], summary: str, owner: object, name: str,
                 tag: str, ints: tuple[str, ...], tol: str | None, root_degree: bool):
        self._init_fields(operands, summary, owner, name, tag, ints, tol, root_degree)


def _op(operands: str, call: str, tag: str, summary: str, *, ints: str = "",
        tol: str | None = None, root_degree: bool = False) -> OpSpec:
    # ``call`` is "owner.name" or a bare name, both in this module's namespace.
    owner, _, name = call.rpartition(".")
    return OpSpec(tuple(operands.split()), summary,
                  globals()[owner] if owner else sys.modules[__name__], name, tag,
                  tuple(ints.split()), tol, root_degree)


def _scale(c: float, q: GQuat) -> GQuat:
    return q.scale(c)


def _det(q: GQuat) -> float:
    return matrices.det4(matrices.left_matrix(q))


OPS: dict[str, OpSpec] = {
    "add": _op("quat quat", "operator.add", "quat", "componentwise sum"),
    "sub": _op("quat quat", "operator.sub", "quat", "componentwise difference"),
    "scale": _op("scalar quat", "_scale", "quat", "scalar multiple"),
    "mul": _op("quat quat", "operator.mul", "quat", "algebra product"),
    "conj": _op("quat", "GQuat.conj", "quat", "conjugate"),
    "norm": _op("quat", "GQuat.norm", "scalar", "indefinite norm"),
    "inverse": _op("quat", "GQuat.inverse", "quat", "multiplicative inverse"),
    "dot": _op("quat quat", "GQuat.dot", "scalar", "scalar product"),
    "bilinear": _op("vec vec", "bilinear_f", "scalar", "bilinear form on vectors"),
    "wedge": _op("vec vec", "wedge", "vector", "weighted cross product"),
    "wedge-triple-left": _op("vec vec vec", "wedge_triple_left", "vector", "p ^ (q ^ r)"),
    "wedge-triple-right": _op("vec vec vec", "wedge_triple_right", "vector", "(p ^ q) ^ r"),
    "left-matrix": _op("quat", "matrices.left_matrix", "mat4", "left-multiplication matrix"),
    "right-matrix": _op("quat", "matrices.right_matrix", "mat4",
                        "right-multiplication matrix"),
    "base-matrices": _op("", "matrices.base_matrices", "mat4_list",
                         "matrices of the basis elements"),
    "det": _op("quat", "_det", "scalar", "determinant of the left matrix"),
    "char-poly": _op("quat", "matrices.char_poly", "char_poly", "characteristic polynomial"),
    "eigenvalues": _op("quat", "matrices.eigenvalues", "complex_pair",
                       "eigenvalues of the left matrix"),
    "eigenvectors": _op("quat", "matrices.eigenvectors", "eigenvectors",
                        "closed-form eigenvectors"),
    "polar": _op("quat", "polar.to_polar", "polar", "polar decomposition"),
    "pow": _op("quat", "polar.demoivre_pow", "quat",
               "integer power by the angle map (needs --n)", ints="n"),
    "matrix-pow": _op("quat", "polar.matrix_pow", "mat4",
                      "matrix power for unit input (needs --n)", ints="n", tol="unit_tol"),
    "exp": _op("vec scalar", "polar.euler_exp", "quat",
               "exponential of a unit direction and angle", tol="axis_tol"),
    "exp-matrix": _op("vec scalar", "polar.euler_exp_matrix", "mat4",
                      "matrix exponential form", tol="axis_tol"),
    "roots": _op("quat", "polar.matrix_roots", "roots",
                 "all nth matrix roots for unit input (needs --n)",
                 ints="n", tol="unit_tol", root_degree=True),
    "period": _op("quat", "polar.power_period", "period",
                  "power period of a unit elliptic quaternion", tol="unit_tol"),
    "scaled-pow": _op("quat", "polar.scaled_power_relation", "quat",
                      "reduce p^n to modulus^(n-s) p^s (needs --n, --s)", ints="n s"),
    "bracket": _op("vec vec", "lie.bracket", "vector", "Lie bracket"),
    "adjoint": _op("quat", "lie.adjoint_group", "mat3", "conjugation action on vectors"),
    "skew": _op("vec", "lie.skew_of_axis", "mat3", "weighted skew matrix"),
    "rodrigues": _op("vec scalar", "lie.adjoint_rodrigues", "mat3",
                     "adjoint from axis and angle", tol="axis_tol"),
    "ad": _op("vec", "lie.ad_matrix", "mat3", "bracket action matrix"),
    "killing": _op("vec vec", "lie.killing_form", "scalar", "Killing form value"),
    "killing-matrix": _op("", "lie.killing_matrix", "mat3",
                          "Killing form over the vector basis"),
    "epsilon": _op("", "lie.metric_eps", "mat3", "diagonal metric on vectors"),
    "compact": _op("", "lie.is_compact", "bool", "is the unit group compact"),
}


# --- request execution --------------------------------------------------------


def _error(code: str, message: Exception | str) -> dict:
    return {"status": "error", "code": code, "message": str(message)}


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
        # An op without operands acts on the parameter triple itself.
        args = ([_coerce(kind, value, params) for kind, value in zip(op.operands, raw_operands)]
                if op.operands else [params])
        for key in op.ints:
            args.append(_require_int_option(options, key))
        if op.root_degree:
            polar._check_root_degree(args[-1])  # its ValueError is a bad_request
        kwargs = _tolerance(options, op_name, op.tol)
    except (RequestError, ValueError, TypeError, OverflowError) as exc:
        # includes literals that parse as floats but are not finite ("nan")
        # and integers too large for a float
        return _error("bad_request", exc), EXIT_USAGE

    try:
        value = getattr(op.owner, op.name)(*args, **kwargs)
        result = {op.tag: _ENCODE[op.tag](value)}
    except AlgebraError as exc:
        return _error(exc.code, exc), EXIT_DOMAIN_ERROR
    return {"status": "ok", "result": result}, EXIT_OK


# One C encoder for every line: json.dumps with arguments builds one per call.
_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=False)


def _emit(response: dict, out) -> None:
    try:
        text = _ENCODER.encode(response)
    except ValueError as exc:
        # A non-finite float that no check above caught: still one valid line.
        text = _ENCODER.encode(_error("non_finite", exc))
    out.write(text + "\n")


def _run_batch(path: str, inp, out, err) -> int:
    # Lines are split at b"\n" and decoded one by one, so a bad byte costs only its
    # line; a text stream passed as stdin (no .buffer) yields str lines.
    try:
        handle = (contextlib.nullcontext(getattr(inp, "buffer", inp)) if path == "-"
                  else open(path, "rb"))
    except OSError as exc:
        print(f"gq3: cannot read batch file: {exc}", file=err)
        return EXIT_USAGE

    with handle as lines:
        for line in lines:
            try:
                line = (line.decode("utf-8") if isinstance(line, bytes) else line).strip()
                if not line:
                    continue
                request = json.loads(line)
            except (ValueError, RecursionError) as exc:
                # invalid UTF-8, JSONDecodeError, an integer literal too long to
                # convert, or nesting deeper than the decoder's recursion limit
                _emit(_error("bad_request", f"invalid JSON: {exc}"), out)
                continue
            response, _ = execute_request(request)
            _emit(response, out)
    return EXIT_OK


_USAGE = """\
usage: gq3 [--params L1,L2,L3 | --family NAME] OP [OPERANDS...] [--n N] [--s S] [--tol TOL]
       gq3 batch FILE        (FILE "-" reads standard input)

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
    parsed: dict[str, object] = {**dict.fromkeys(flags.values()), "op": None, "operands": []}
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


def _literal(text: str | None, kind: type) -> object:
    # A literal of the option's type (int for --n/--s, float for --tol)
    # becomes a number; anything else is passed on unchanged, to be rejected,
    # or ignored by an op that takes no such option.
    try:
        return kind(text)
    except (TypeError, ValueError):
        return text


def main(argv: Sequence[str] | None = None, *, stdin=None, stdout=None, stderr=None) -> int:
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
        return _run_batch(ns["operands"][0], stdin if stdin is not None else sys.stdin, out, err)

    if ns["op"] not in OPS:
        print(f"gq3: unknown operation {ns['op']!r}; known: {', '.join(sorted(OPS))}", file=err)
        return EXIT_USAGE

    if not ns["params"] and not ns["family"]:
        print("gq3: pick an algebra with --params or --family", file=err)
        return EXIT_USAGE
    if ns["params"] and ns["family"]:
        print("gq3: --params and --family are mutually exclusive", file=err)
        return EXIT_USAGE

    # Checked by execute_request as a batch line's options are; None stands
    # for an absent flag there too.
    options = {"n": _literal(ns["n"], int), "s": _literal(ns["s"], int),
               "tolerance": _literal(ns["tolerance"], float)}
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

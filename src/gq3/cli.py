"""Command-line front end emitting machine-readable JSON.

Single-shot usage picks the algebra with ``--params`` (a triple or a family name),
names an operation and passes operands as comma-separated literals::

    gq3 --params hamilton mul "1,0,0,0" "0,1,0,0"
    gq3 --params 1,1,1 pow "-0.5,0.5,0.5,0.5" --n 21

Batch usage reads newline-delimited JSON requests from a file (``-``: stdin)
and writes one response line per request, in order, without stopping at failures::

    gq3 batch requests.ndjson

stdout carries only JSON; diagnostics go to stderr.  Exit codes: 0 success,
1 domain error or stdout closed early, 2 malformed input.
"""

import contextlib
import json
import math
import operator
import os
import struct
import sys
from collections.abc import Callable, Sequence

# The op table names its library functions as text ("polar.matrix_pow",
# "wedge"), resolved in this module's namespace: these imports serve it.
from . import lie, matrices, polar
from .core import (_FAMILIES, GQuat, GVec3, ParamTriple, _Record, bilinear_f, family,
                   wedge, wedge_triple_left, wedge_triple_right)
from .errors import AlgebraError, _show

__all__ = ["main", "console_main", "execute_request", "OPS"]

EXIT_OK = 0
EXIT_DOMAIN_ERROR = 1
EXIT_USAGE = 2
_MESSAGE_MAX = 1024  # an error message past this many characters keeps them and its length
_LINE_MAX = 1 << 20  # a batch line past this many bytes is answered bad_request, undecoded


# --- operand and parameter parsing ------------------------------------------


def _parse_numbers(text: str, count: int, what: str) -> list[float]:
    parts = [piece.strip() for piece in text.split(",")]
    if len(parts) != count:
        raise ValueError(f"{what} needs {count} comma-separated numbers, got {_show(text)}")
    try:
        return [float(piece) for piece in parts]
    except ValueError:
        raise ValueError(f"{what} has a non-numeric component: {_show(text)}") from None


_NOT_A_NUMBER = "a JSON boolean is not a number"  # float(True) is 1.0, but true is no number
_TRIPLES: dict[str | bytes, ParamTriple] = {}  # see parse_params
_TRIPLES_MAX = 64
_PACK3 = struct.Struct("3d")


def parse_params(value: object) -> ParamTriple:
    """Accept [l1, l2, l3], "l1,l2,l3", a family name, or "2param:l,m".

    Successful parses are kept in ``_TRIPLES``, cleared when it holds ``_TRIPLES_MAX``, so
    a batch over a few algebras builds each triple once.  A string keys itself, a list the
    bytes of its three doubles, which tell -0.0 from 0.0 (equal, but printed differently).
    A boolean, which packs as 1.0 or 0.0, is refused first, so no cached triple answers it.
    """
    if isinstance(value, (list, tuple)) and bool in map(type, value):
        raise ValueError(f"bad params {_show(value)}: {_NOT_A_NUMBER}")
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
            raise ValueError(f"params list needs 3 entries, got {_show(value)}")
        try:
            return ParamTriple(*[float(v) for v in value])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"bad params {_show(value)}: {exc}") from None
    if isinstance(value, str):
        text = value.strip()
        name, colon, rest = text.partition(":")
        if not colon and any(ch.isdigit() for ch in text) and "," in text:
            return ParamTriple(*_parse_numbers(text, 3, "params"))
        values = _parse_numbers(rest, 2, "2param parameters") if colon else ()
        return family(name, *values)
    raise ValueError(f"cannot interpret params {_show(value)}")


def _coercer(cls: type, what: str) -> Callable[[object, ParamTriple], object]:
    """The coercer of one operand kind: a literal of ``cls``'s components -> a ``cls``."""
    size = len(cls._FIELDS)

    def coerce(value, params):
        # The list form, the one batch requests use, goes first.  An operand may also carry
        # its own triple: "0,1,0,0@2,3,5" on the command line, {"components": ..., "params":
        # ...} in batch requests.  Mixing triples is reported by the library as a domain error.
        if not isinstance(value, (list, tuple)):
            if isinstance(value, dict):
                if set(value) - {"components", "params"}:
                    raise ValueError(
                        f"operand object allows keys components/params, got {_show(value)}")
                if "components" not in value:
                    raise ValueError(f"operand object needs 'components': {_show(value)}")
                if "params" in value:
                    params = parse_params(value["params"])
                value = value["components"]
            elif isinstance(value, str) and "@" in value:
                value, _, suffix = value.partition("@")
                params = parse_params(suffix)
            if isinstance(value, str):
                return cls._of(_parse_numbers(value, size, what), params)
        if isinstance(value, (list, tuple)) and len(value) == size:
            try:
                if bool in map(type, value):
                    raise TypeError(_NOT_A_NUMBER)
                return cls._of(map(float, value), params)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"bad {what} {_show(value)}: {exc}") from None
        raise ValueError(f"expected a {what} ({size} components), got {_show(value)}")

    return coerce


def _scalar(value: object, params: ParamTriple) -> float:
    # A non-finite number is refused here like a non-finite quaternion component, not left to
    # surface as a domain error of the operation.
    try:
        if isinstance(value, bool) or not isinstance(value, (int, float, str)):
            raise TypeError
        if math.isfinite(number := float(value)):
            return number
    except (TypeError, ValueError):  # not a number, or text that is not one
        raise ValueError(f"expected a number, got {_show(value)}") from None
    except OverflowError:  # an integer past the float range
        pass
    raise ValueError(f"expected a finite number, got {_show(value)}")


# Operand kind -> its coercer: (literal, the request's triple) -> library value.
_COERCE = {"quat": _coercer(GQuat, "quaternion"), "vec": _coercer(GVec3, "vector"),
           "scalar": _scalar}


def _require_int_option(options: dict, key: str) -> int:
    value = options.get(key)
    if value is None:
        raise ValueError(f"operation needs option --{key}")
    if isinstance(value, bool) or not isinstance(value, int):
        if isinstance(value, float) and value.is_integer():
            return int(value)
        raise ValueError(f"option --{key} must be an integer, got {_show(value)}")
    return value


# --- JSON encoding of results ------------------------------------------------


def _as_is(x):
    return x


# json writes a tuple as an array: components, matrix rows and (re, im) go out as they are.
_components = operator.attrgetter("components")
_complex = operator.attrgetter("real", "imag")


# Result tag -> how its value is reshaped for json; any other tag's value is written as is.
_ENCODE: dict[str, Callable[[object], object]] = {
    "quat": _components,
    "vector": _components,
    "roots": lambda roots: {"degree": len(roots), "matrices": roots},
    "polar": lambda form: {
        "modulus": form.modulus,
        "theta": form.theta,
        "axis": form.axis.components if form.axis is not None else None,
    },
    # two conjugate values, each of algebraic multiplicity two
    "complex_pair": lambda pair: [_complex(z) for z in pair],
    "eigenvectors": lambda pairs: [
        {"value": _complex(value), "vector": [_complex(z) for z in vector]}
        for value, vector in pairs
    ],
    "char_poly": lambda cp: {"coefficients": cp[0], "quadratic": cp[1]},
}


# --- operation table -----------------------------------------------------------


class OpSpec(_Record):
    """One row of the operation table.

    The library function is attribute ``name`` of ``owner``, a module or
    class.  It is looked up on every request rather than bound once, so that
    rebinding the attribute (as a tracer does) reaches the CLI too.  It
    receives the operands in order (the request's parameter triple when the
    op has none), then the integer options named in ``ints``.  The result is
    written under ``tag``.  What the row fixes for every request, the coercer of
    each operand and the encoder of the result, is worked out once here.
    """

    __match_args__ = ("operands", "owner", "name", "tag", "ints")

    def __init__(self, operands: tuple[str, ...], owner: object, name: str, tag: str,
                 ints: tuple[str, ...]):
        self._init_fields(operands, owner, name, tag, ints)
        self.__dict__.update(_coercers=tuple(map(_COERCE.__getitem__, operands)),
                             _encode=_ENCODE.get(tag, _as_is))


def _op(operands: str, call: str, tag: str, *, ints: str = "") -> OpSpec:
    # ``call`` is "owner.name" or a bare name, both in this module's namespace.
    owner, _, name = call.rpartition(".")
    return OpSpec(tuple(operands.split()), globals()[owner] if owner else sys.modules[__name__],
                  name, tag, tuple(ints.split()))


def _det(q: GQuat) -> float:
    return matrices.det4(matrices.left_matrix(q))


OPS: dict[str, OpSpec] = {
    "add": _op("quat quat", "operator.add", "quat"),
    "sub": _op("quat quat", "operator.sub", "quat"),
    "scale": _op("scalar quat", "operator.mul", "quat"),
    "mul": _op("quat quat", "operator.mul", "quat"),
    "conj": _op("quat", "GQuat.conj", "quat"),
    "norm": _op("quat", "GQuat.norm", "scalar"),
    "inverse": _op("quat", "GQuat.inverse", "quat"),
    "dot": _op("quat quat", "GQuat.dot", "scalar"),
    "bilinear": _op("vec vec", "bilinear_f", "scalar"),
    "wedge": _op("vec vec", "wedge", "vector"),
    "wedge-triple-left": _op("vec vec vec", "wedge_triple_left", "vector"),
    "wedge-triple-right": _op("vec vec vec", "wedge_triple_right", "vector"),
    "left-matrix": _op("quat", "matrices.left_matrix", "mat4"),
    "right-matrix": _op("quat", "matrices.right_matrix", "mat4"),
    "base-matrices": _op("", "matrices.base_matrices", "mat4_list"),
    "det": _op("quat", "_det", "scalar"),
    "char-poly": _op("quat", "matrices.char_poly", "char_poly"),
    "eigenvalues": _op("quat", "matrices.eigenvalues", "complex_pair"),
    "eigenvectors": _op("quat", "matrices.eigenvectors", "eigenvectors"),
    "polar": _op("quat", "polar.to_polar", "polar"),
    "pow": _op("quat", "polar.demoivre_pow", "quat", ints="n"),
    "matrix-pow": _op("quat", "polar.matrix_pow", "mat4", ints="n"),
    "exp": _op("vec scalar", "polar.euler_exp", "quat"),
    "exp-matrix": _op("vec scalar", "polar.euler_exp_matrix", "mat4"),
    "roots": _op("quat", "polar.matrix_roots", "roots", ints="n"),
    "period": _op("quat", "polar.power_period", "period"),
    "scaled-pow": _op("quat", "polar.scaled_power_relation", "quat", ints="n s"),
    "bracket": _op("vec vec", "lie.bracket", "vector"),
    "adjoint": _op("quat", "lie.adjoint_group", "mat3"),
    "skew": _op("vec", "lie.skew_of_axis", "mat3"),
    "rodrigues": _op("vec scalar", "lie.adjoint_rodrigues", "mat3"),
    "ad": _op("vec", "lie.ad_matrix", "mat3"),
    "killing": _op("vec vec", "lie.killing_form", "scalar"),
    "killing-matrix": _op("", "lie.killing_matrix", "mat3"),
    "epsilon": _op("", "lie.metric_eps", "mat3"),
    "compact": _op("", "lie.is_compact", "bool"),
}


# --- request execution --------------------------------------------------------


def _error(code: str, message: Exception | str) -> dict:
    # Every error response and stderr diagnostic is built here, so every message is bounded here.
    text = str(message)
    if len(text) > _MESSAGE_MAX:
        text = f"{text[:_MESSAGE_MAX]}... ({len(text):,} characters)"
    return {"status": "error", "code": code, "message": text}


def _fail(err, message: Exception | str, usage: str = "") -> int:
    # A diagnostic of malformed argv or an unreadable batch file, then ``usage``, on stderr.
    print(f"gq3: {_error('bad_request', message)['message']}\n{usage}", end="", file=err)
    return EXIT_USAGE


def execute_request(request: dict) -> tuple[dict, int]:
    """Run one request dict; return (response dict, exit code)."""
    try:
        if not isinstance(request, dict):
            raise ValueError("request must be a JSON object")
        op_name = request.get("op")
        op = OPS.get(op_name) if isinstance(op_name, str) else None
        if op is None:
            raise ValueError(f"unknown operation {_show(op_name)}")
        params_field = request.get("params")
        if params_field is None:
            raise ValueError("request needs params (triple or family name)")
        params = parse_params(params_field)
        raw_operands = request.get("operands", [])
        if not isinstance(raw_operands, list):
            raise ValueError("operands must be a list")
        coercers = op._coercers
        if len(raw_operands) != len(coercers):
            raise ValueError(
                f"operation {_show(op_name)} needs {len(coercers)} operand(s), "
                f"got {len(raw_operands)}")
        options = request.get("options", {})
        if options is None:
            options = {}
        if not isinstance(options, dict):
            raise ValueError("options must be an object")
        # An op without operands acts on the parameter triple itself.
        args = [] if coercers else [params]
        for coerce, value in zip(coercers, raw_operands):
            args.append(coerce(value, params))
        for key in op.ints:
            args.append(_require_int_option(options, key))
        # The unit gates are fixed: a request asking for a looser one is refused, not answered.
        if options.get("tolerance") is not None:
            raise ValueError(f"operation {_show(op_name)} takes no tolerance")
    except (ValueError, TypeError, OverflowError) as exc:
        # includes literals that parse as floats but are not finite ("nan")
        # and integers too large for a float
        return _error("bad_request", exc), EXIT_USAGE

    try:
        target = getattr(op.owner, op.name)
        result = {op.tag: op._encode(target(*args))}
    except AlgebraError as exc:
        return _error(exc.code, exc), EXIT_DOMAIN_ERROR
    except ValueError as exc:
        # An argument the library refuses, as matrix_roots does a degree outside
        # 1..MAX_ROOT_DEGREE.  After AlgebraError: NonFinite is a ValueError too.
        return _error("bad_request", exc), EXIT_USAGE
    return {"status": "ok", "result": result}, EXIT_OK


# One C encoder for every line, made once: JSONEncoder.encode and json.dumps make one per
# call.  A response is a tree of fresh lists and dicts and the library's immutable tuples, so
# it cannot contain itself: no circular-reference pass.  _ENCODER, with the same settings,
# serves where the interpreter has no C accelerator (c_make_encoder is None).
_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=False, check_circular=False)
_c_encode = json.encoder.c_make_encoder and json.encoder.c_make_encoder(
    None, _ENCODER.default, json.encoder.encode_basestring_ascii, None, ":", ",", False, False,
    False)


def _emit(response: dict, out) -> None:
    try:
        text = "".join(_c_encode(response, 0)) if _c_encode else _ENCODER.encode(response)
    except ValueError as exc:
        # A non-finite float the library let through (it checks them all): still one valid line.
        text = _ENCODER.encode(_error("non_finite", exc))
    out.write(text + "\n")


def _run_batch(path: str, inp, out, err) -> int:
    # Lines are split at b"\n" and decoded one by one, so a bad byte costs only its
    # line; a text stream passed as stdin (no .buffer) yields str lines, bounded in characters.
    try:
        handle = (contextlib.nullcontext(getattr(inp, "buffer", inp)) if path == "-"
                  else open(path, "rb"))
    except OSError as exc:
        return _fail(err, f"cannot read batch file: {exc}")

    with handle as stream:
        while line := stream.readline(_LINE_MAX + 1):
            eol = b"\n" if isinstance(line, bytes) else "\n"
            if len(line) > _LINE_MAX and not line.endswith(eol):
                while (rest := stream.readline(_LINE_MAX)) and not rest.endswith(eol):
                    pass
                _emit(_error("bad_request", f"line longer than {_LINE_MAX:,} bytes"), out)
                continue
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


# Single-shot flag -> the request field it sets; each takes one value.
_FLAGS = {"--params": "params", "--n": "n", "--s": "s"}

_USAGE = f"""\
usage: gq3 --params L1,L2,L3|NAME OP [OPERANDS...] [--n N] [--s S]
       gq3 batch FILE        (FILE "-" reads standard input)

Operands are comma-separated literals: quaternions "a0,a1,a2,a3", vectors
"a1,a2,a3", plain numbers for scalars.  Batch files hold one JSON request
per line.  Families: {", ".join([*_FAMILIES, "2param:l,m"])}.
Operations:
""" + "".join(f"  {' '.join([*OPS][i:i + 6])}\n" for i in range(0, len(OPS), 6))


def _parse_argv(argv: Sequence[str]) -> tuple[dict, bool]:
    """Tiny hand-rolled argv walker: the request a batch line would carry, and whether -h.

    Not argparse: operand literals such as "-0.5,0.5,0.5,0.5" begin with a dash and argparse
    would reject them as unknown options.  Grammar is flags (each taking one value, the last
    given winning), then the op name, then operands, in any interleaving.  The request holds
    ``params`` and each option only if its flag is given.
    """
    request: dict = {"op": None, "operands": [], "options": {}}
    wants_help = False
    tokens = iter(argv)
    for token in tokens:
        if token in ("-h", "--help"):
            wants_help = True
        elif token in _FLAGS:
            value = next(tokens, None)
            if value is None:
                raise ValueError(f"{token} needs a value")
            if token == "--params":
                request["params"] = value
            else:
                request["options"][_FLAGS[token]] = _literal(value)
        elif token.startswith("--"):
            raise ValueError(f"unknown option {_show(token)}")
        elif request["op"] is None:
            request["op"] = token
        else:
            request["operands"].append(token)
    return request, wants_help


def _literal(text: str) -> object:
    # An option flag's value as a batch line would carry it: an int if the text is one, else
    # a float, else the text itself, for execute_request to judge.
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def main(argv: Sequence[str] | None = None, *, stdin=None, stdout=None, stderr=None) -> int:
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    argv = argv if argv is not None else sys.argv[1:]

    try:
        request, wants_help = _parse_argv(argv)
    except ValueError as exc:
        return _fail(err, exc, _USAGE)

    op = request["op"]
    if wants_help or op is None:
        print(_USAGE, file=err, end="")
        return EXIT_OK if wants_help else EXIT_USAGE

    if op == "batch":
        if "params" in request or request["options"]:
            return _fail(err, "batch requests carry their own params and options; "
                         f"{'/'.join(_FLAGS)} not allowed")
        if len(request["operands"]) != 1:
            return _fail(err, "batch needs exactly one file path")
        return _run_batch(*request["operands"], stdin if stdin is not None else sys.stdin, out, err)

    response, code = execute_request(request)
    if code == EXIT_USAGE:
        # Malformed single-shot input: diagnostics on stderr, nothing on stdout.
        print(f"gq3: {response['message']}", file=err)
        return EXIT_USAGE
    _emit(response, out)
    return code


def console_main() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (gq3 batch FILE | head -1).  Python flushes
        # stdout again at exit; pointing it at devnull keeps that flush quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_DOMAIN_ERROR
    sys.exit(code)


if __name__ == "__main__":
    console_main()

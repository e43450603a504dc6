"""The package's export list, the standard-library-only runtime, and the README tour."""

import ast
import builtins
import io
import operator
import re
import subprocess
import sys
import tomllib
import types
from pathlib import Path

import pytest

import gq3
from gq3 import ParamTriple, cli, core, errors, family, lie, matrices, oracle, polar

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MODULES = (core, errors, matrices, polar, lie)


def test_package_exports_the_union_of_module_exports():
    declared = [name for module in MODULES for name in module.__all__]
    assert len(declared) == len(set(declared)), "a name is declared in two modules"
    assert sorted(gq3.__all__) == sorted(declared)


def test_each_export_is_the_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(gq3, name) is getattr(module, name), f"{module.__name__}.{name}"


def _modules_after_import(*flags: str, block_numpy: bool = False) -> set[str]:
    # The modules loaded once ``import gq3, gq3.cli, gq3.oracle`` is done.  -I ignores
    # PYTHONPATH, so the source tree goes on sys.path by hand; -B leaves no bytecode
    # cache behind.  A blocked numpy makes any import of it fail.
    block = "sys.modules['numpy'] = None; " if block_numpy else ""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); " + block +
            "import gq3, gq3.cli, gq3.oracle; "
            "print(*[name for name, module in sys.modules.items() if module])")
    done = subprocess.run([sys.executable, *flags, "-B", "-c", code, str(SRC)],
                          capture_output=True, text=True, check=True)
    return set(done.stdout.split())


def test_runtime_does_not_import_numpy():
    # Importing numpy would more than double the start-up time of a gq3 process.
    assert "numpy" not in _modules_after_import("-I")


def test_runtime_imports_neither_dataclasses_nor_typing():
    # Without site (-S) nothing but gq3 loads them: dataclasses pulls in inspect,
    # and with it the largest part of the import time of gq3.  The reference routes
    # of gq3.oracle need no more than the runtime: they import with numpy absent.
    loaded = _modules_after_import("-I", "-S", block_numpy=True)
    assert {"gq3.cli", "gq3.oracle"} <= loaded
    assert not loaded & {"dataclasses", "inspect", "typing", "numpy"}


_ASSIGN = """
import sys
sys.path.insert(0, sys.argv[1])
from gq3 import GQuat, ParamTriple, left_matrix
params = ParamTriple(1.0, 1.0, 1.0)
quat = GQuat(1.0, 0.0, 0.0, 0.0, params)
for value, name in ((quat, "a0"), (params, "lambda1"), (left_matrix(quat), "params")):
    try:
        setattr(value, name, 2.0)
    except Exception as exc:
        print(type(exc).__name__)
print("dataclasses" in sys.modules)
"""


def test_assigning_to_a_frozen_value_raises_attribute_error_and_loads_nothing():
    # A GQuat, a ParamTriple and a Mat4 refuse assignment with the built-in AttributeError,
    # so raising it loads no module either.
    done = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", _ASSIGN, str(SRC)],
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["AttributeError"] * 3 + ["False"]


def _raised_names(tree: ast.AST):
    # (line, name) of each raise that names what it raises; a bare re-raise names nothing.
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            yield node.lineno, getattr(exc, "id", None) or getattr(exc, "attr", None)


def test_src_raises_only_gq3_errors_and_builtins():
    # A caller catches what gq3 raises by gq3.errors' classes and Python's own exceptions.
    def allowed(name):
        builtin = getattr(builtins, name or "", None)
        return name in errors.__all__ or (isinstance(builtin, type)
                                           and issubclass(builtin, BaseException))

    others = [f"{path.name}:{line} {name}"
              for path in sorted((SRC / "gq3").glob("*.py"))
              for line, name in _raised_names(ast.parse(path.read_text(encoding="utf-8")))
              if not allowed(name)]
    assert others == []


@pytest.mark.filterwarnings("ignore:Support for `\\[tool.setuptools\\]`")
def test_version_is_stated_once():
    # pyproject.toml names no version of its own; setuptools reads gq3.__version__.
    from setuptools.config.pyprojecttoml import read_configuration

    path = ROOT / "pyproject.toml"
    project = tomllib.loads(path.read_text(encoding="utf-8"))["project"]
    assert "version" not in project and "version" in project["dynamic"]
    assert read_configuration(path)["project"]["version"] == gq3.__version__


def test_every_module_parses_at_the_oldest_supported_python():
    # pyproject.toml's requires-python is the oldest grammar src may use.  feature_version
    # refuses the newer syntax this interpreter's parser knows, such as except* or def f[T].
    floor = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    major, minor = map(int, re.fullmatch(r">=(\d+)\.(\d+)",
                                         floor["project"]["requires-python"]).groups())
    paths = sorted((SRC / "gq3").glob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(major, minor))


def _readme_tour() -> list[tuple[str, str | None]]:
    """(code, commented result or None) of each line of the README's Python block."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^```python\n(.*?)^```", text, re.M | re.S).group(1)
    lines = []
    for line in block.splitlines():
        code, _, comment = line.partition("  # ")
        if code.strip() and not code.startswith("#"):
            lines.append((code, comment.split(" — ")[0].strip() or None))
    return lines


def test_readme_tour_shows_what_it_computes():
    namespace: dict = {}
    shown = 0
    for code, expected in _readme_tour():
        statement = ast.parse(code).body[0]
        if isinstance(statement, ast.Expr):
            value = eval(code, namespace)
        else:
            exec(code, namespace)
            value = namespace[statement.targets[0].id] if expected else None
        if expected is not None:
            pattern = ".*".join(map(re.escape, expected.split("...")))
            assert re.fullmatch(pattern, repr(value)), (code, repr(value))
            shown += 1
    assert shown == 4


def _readme_table(header: str) -> list[list[str]]:
    """The cells of each row of the README table whose header row starts with ``header``."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(rf"^{re.escape(header)}.*\n\|[-| ]+\|\n((?:\|.*\n)+)", text, re.M).group(1)
    return [[cell.strip() for cell in line.strip().strip("|").split("|")]
            for line in block.splitlines()]


def test_readme_family_table_is_the_code():
    rows = {name.strip("`"): triple.strip("`") for name, triple, _ in _readme_table("| family")}
    assert rows.pop("2param:l,m") == "(1, l, m)"
    assert family("2param", 2.5, -0.5) == ParamTriple(1.0, 2.5, -0.5)
    assert rows.keys() == core._FAMILIES.keys()
    for name, triple in rows.items():
        lam = tuple(float(x) for x in triple.strip("()").split(","))
        assert core._FAMILIES[name] == lam and family(name) == ParamTriple(*lam), name


def test_readme_gate_values_are_the_code():
    # The fixed values of the unit gates, the period test, the root degree and the message
    # and batch line bounds are the contract.
    text = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    conventions = text.partition("## Conventions and tolerances")[2].partition(" ## ")[0]
    tols = re.findall(r"([\d.e+-]+)` \(`polar\.(\w+_TOL)\b", conventions)
    assert sorted((name, float(value)) for value, name in tols) == [
        ("PERIOD_REL_TOL", polar.PERIOD_REL_TOL), ("UNIT_AXIS_TOL", polar.UNIT_AXIS_TOL),
        ("UNIT_NORM_TOL", polar.UNIT_NORM_TOL)]
    degree = re.search(r"`roots` runs from 1 to `polar\.MAX_ROOT_DEGREE` \((\d+)\)", text)
    assert int(degree.group(1)) == polar.MAX_ROOT_DEGREE
    bound = re.search(r"past ([\d,]+) characters \(`cli\._MESSAGE_MAX`\)", text)
    assert int(bound.group(1).replace(",", "")) == cli._MESSAGE_MAX
    line = re.search(r"more than ([\d,]+) bytes before its `\\n` \(`cli\._LINE_MAX`\)", text)
    assert int(line.group(1).replace(",", "")) == cli._LINE_MAX


def test_readme_counts_the_committed_cli_responses():
    text = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    count = re.search(r"`tests/data/cli_responses\.ndjson` holds ([\d,]+) seeded", text)
    path = ROOT / "tests" / "data" / "cli_responses.ndjson"
    assert int(count.group(1).replace(",", "")) == len(path.read_bytes().splitlines())


def test_readme_result_tags_are_the_op_tags():
    # README's "Responses" paragraph is the one list of tags: cli._ENCODE names only the
    # tags whose value it reshapes, so a misspelt tag in the op table shows only here.
    text = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    tags = text.partition("the result carries exactly one tag:")[2].partition(" `degree` is")[0]
    listed = re.findall(r"`(\w+)`", re.sub(r"\([^()]*\)", "", tags))
    assert sorted(listed) == sorted({op.tag for op in cli.OPS.values()})
    assert set(cli._ENCODE) < set(listed)


def test_usage_family_list_is_the_code():
    err = io.StringIO()
    assert cli.main(["--help"], stdout=io.StringIO(), stderr=err) == cli.EXIT_OK
    listed = re.search(r"Families: (.*?)\.", " ".join(err.getvalue().split())).group(1)
    assert listed.split(", ") == [*core._FAMILIES, "2param:l,m"]


def test_usage_flags_are_the_code():
    assert re.findall(r"--\w+", cli._USAGE.splitlines()[0]) == list(cli._FLAGS)


def _src_kernels() -> set[str]:
    """The kernels in src: core's kernel section, up to its first class, and every marked one."""
    core_text = (SRC / "gq3" / "core.py").read_text(encoding="utf-8")
    section = core_text.partition("\n# --- kernels:")[2].partition("\nclass ")[0]
    kernels = set(re.findall(r"^def (_\w+)\(", section, re.M))
    for path in (SRC / "gq3").glob("*.py"):
        kernels |= set(re.findall(r"^def (_\w+)\(.*\n    # Kernel \(see core\)",
                                  path.read_text(encoding="utf-8"), re.M))
    return kernels


def test_readme_kernel_list_is_what_the_proofs_import():
    # README lists each kernel the proofs import, and no other; both are the kernels in src.
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"^### How the formulas are checked\n(.*?)Three kinds of check",
                       text, re.M | re.S).group(1)
    proofs = ast.parse((ROOT / "tests" / "test_proofs.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(proofs) if isinstance(node, ast.ImportFrom)
                and node.module in ("gq3.core", "gq3.matrices", "gq3.lie", "gq3.polar")
                for alias in node.names if alias.name.startswith("_")}
    assert set(re.findall(r"`(_\w+)`", listed)) == imported == _src_kernels()


# Special methods of the record machinery, which every record shares: no ledger row.
_RECORD_METHODS = {"__init__", "__init_subclass__", "__eq__", "__hash__", "__repr__",
                   "__setattr__", "__delattr__"}
# A CLI helper that composes public names: its op is listed under the name computing it.
_COMPOSED = {"_det": "det4"}


def _public_members(cls: type, sample) -> set[str]:
    names = {name for name in vars(sample) if not name.startswith("_")} if sample else set()
    for klass in cls.__mro__:
        if klass.__module__.startswith("gq3."):
            names |= {name for name, value in vars(klass).items()
                      if not name.startswith("_")
                      or (name.startswith("__") and name.endswith("__")
                          and isinstance(value, (types.FunctionType, classmethod, staticmethod))
                          and name not in _RECORD_METHODS)}
    return names


def _api_names() -> set[str]:
    # A unit element, and a value of each type built from it.
    p = gq3.GQuat(0.6, 0.0, 0.8, 0.0, family("hamilton"))
    samples = [p.params, p, p.vector_part, gq3.left_matrix(p), gq3.adjoint_group(p),
               gq3.to_polar(p)]
    samples = {type(sample): sample for sample in samples}
    names = set(gq3.__all__) | {f"oracle.{name}" for name in oracle.__all__}
    for name in gq3.__all__:
        cls = getattr(gq3, name)
        if isinstance(cls, type):
            names |= {f"{name}.{member}" for member in _public_members(cls, samples.get(cls))}
    return names


def _op_rows() -> dict[str, set[str]]:
    """Ledger name -> the ops whose row of ``cli.OPS`` targets it."""
    rows: dict[str, set[str]] = {}
    for op, spec in cli.OPS.items():
        if spec.owner is operator:
            # c * q reaches the right-hand operand's __rmul__; q + q the left one's __add__.
            kinds = spec.operands
            reflected = kinds[0] == "scalar"
            cls = {"quat": "GQuat", "vec": "GVec3"}[kinds[1] if reflected else kinds[0]]
            name = f"{cls}.__{'r' if reflected else ''}{spec.name}__"
        elif isinstance(spec.owner, type):
            name = f"{spec.owner.__name__}.{spec.name}"
        else:
            name = _COMPOSED.get(spec.name, spec.name)
            assert spec.name in _COMPOSED or getattr(spec.owner, name) is getattr(gq3, name), op
        rows.setdefault(name, set()).add(op)
    return rows


def _expand(cell: str) -> list[str]:
    # `GQuat/GVec3.scale` names the member of both classes.
    owners, _, member = cell.strip("`").rpartition(".")
    if "/" not in owners:
        return [cell.strip("`")]
    return [f"{owner}.{member}" for owner in owners.split("/")]


def _check_exists(ref: str) -> bool:
    if ref.startswith("oracle."):
        return hasattr(oracle, ref.partition(".")[2])
    module, _, function = ref.partition("::")
    return f"\ndef {function}(" in (ROOT / "tests" / f"{module}.py").read_text(encoding="utf-8")


def test_public_api_ledger_is_the_code():
    abstract = (ROOT / "PAPER.md").read_text(encoding="utf-8").lower()
    ledger: dict[str, set[str]] = {}  # name -> its CLI ops
    for name_cell, paper, ops, checks, note in _readme_table("| name | paper item"):
        for name in _expand(name_cell):
            assert name not in ledger, f"two rows for {name}"
            ledger[name] = set(re.findall(r"`([a-z-]+)`", ops))
        assert paper == "—" and note or paper.lower() in abstract, name_cell
        refs = re.findall(r"`([^`]+)`", checks)
        assert refs and all(map(_check_exists, refs)), name_cell
    assert ledger.keys() == _api_names()
    assert {name: ops for name, ops in ledger.items() if ops} == _op_rows()


def test_removed_names_are_gone():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    removed = re.search(r"^### Removed\n\n((?:- .*\n(?:  .*\n)*)+)", text, re.M).group(1)
    names = re.findall(r"^- `([\w./]+)", removed, re.M)
    assert {"GQuat.one", "cli._scale", "Mat3/Mat4.tolist", "polar.RootSet",
            "EigenPair", "CharPoly", "cli.RequestError"} <= set(names)
    # A record's fields live on its instances: the ledger's names cover those.
    api = _api_names()
    for name in (expanded for cell in names for expanded in _expand(cell)):
        owner, _, attr = name.rpartition(".")
        # A removed top-level name (no owner) is gone from gq3 itself.
        assert not hasattr(getattr(gq3, owner) if owner else gq3, attr), name
        assert name not in api, name

"""The package's export list, the standard-library-only runtime, and the README tour."""

import ast
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

import gq3
from gq3 import core, errors, lie, matrices, polar

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


@pytest.mark.filterwarnings("ignore:Support for `\\[tool.setuptools\\]`")
def test_version_is_stated_once():
    # pyproject.toml names no version of its own; setuptools reads gq3.__version__.
    from setuptools.config.pyprojecttoml import read_configuration

    path = ROOT / "pyproject.toml"
    project = tomllib.loads(path.read_text(encoding="utf-8"))["project"]
    assert "version" not in project and "version" in project["dynamic"]
    assert read_configuration(path)["project"]["version"] == gq3.__version__


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

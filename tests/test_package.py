"""The package's export list, and the standard-library-only runtime."""

import subprocess
import sys
from pathlib import Path

import gq3
from gq3 import core, errors, lie, matrices, polar

SRC = Path(__file__).resolve().parent.parent / "src"

MODULES = (core, errors, matrices, polar, lie)


def test_package_exports_the_union_of_module_exports():
    declared = [name for module in MODULES for name in module.__all__]
    assert len(declared) == len(set(declared)), "a name is declared in two modules"
    assert sorted(gq3.__all__) == sorted(declared)


def test_each_export_is_the_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(gq3, name) is getattr(module, name), f"{module.__name__}.{name}"


def test_runtime_does_not_import_numpy():
    # Importing numpy would more than double the start-up time of a gq3
    # process.  -I ignores PYTHONPATH, so the source tree goes on sys.path
    # by hand.
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import gq3, gq3.cli; print('numpy' in sys.modules)")
    done = subprocess.run([sys.executable, "-I", "-c", code, str(SRC)],
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"

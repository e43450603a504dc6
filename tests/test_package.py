"""The package's export list is the union of its modules' public lists."""

import gq3
from gq3 import core, errors, lie, matrices, polar

MODULES = (core, errors, matrices, polar, lie)


def test_package_exports_the_union_of_module_exports():
    declared = [name for module in MODULES for name in module.__all__]
    assert len(declared) == len(set(declared)), "a name is declared in two modules"
    assert sorted(gq3.__all__) == sorted(declared)


def test_each_export_is_the_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(gq3, name) is getattr(module, name), f"{module.__name__}.{name}"

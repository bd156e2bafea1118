"""The package namespace is exactly the union of its modules' ``__all__``."""

import importlib
import types

import freelinks

MODULES = ("bracket", "diagram", "invariant", "moves", "words")
# module name -> the package's name for it, where the two differ
RENAMED = {"reduce": "reduce_word"}


def test_exports_every_module_name_and_nothing_else():
    exported = {}
    for module_name in MODULES:
        module = importlib.import_module(f"freelinks.{module_name}")
        for name in module.__all__:
            exported[RENAMED.get(name, name)] = getattr(module, name)
    assert sorted(freelinks.__all__) == sorted(exported)
    assert len(set(freelinks.__all__)) == len(freelinks.__all__)
    for name, value in exported.items():
        assert getattr(freelinks, name) is value, name


def test_star_import_binds_no_module():
    namespace: dict = {}
    exec("from freelinks import *", namespace)
    names = {name for name in namespace if not name.startswith("__")}
    assert names == set(freelinks.__all__)
    assert not any(isinstance(namespace[name], types.ModuleType) for name in names)
    assert namespace["require_valid"] is importlib.import_module("freelinks.diagram").require_valid

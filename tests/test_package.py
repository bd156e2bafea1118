"""The package namespace is exactly the union of its modules' ``__all__``,
and importing the command line loads no module it does not need."""

import importlib
import subprocess
import sys
import types
from pathlib import Path

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


def test_command_line_import_loads_no_record_code_generation():
    # building records with generated code took most of the import's time,
    # and dataclasses also imports inspect; compared against the modules
    # that interpreter start-up loaded before the import
    src = Path(__file__).resolve().parent.parent / "src"
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
        "import freelinks.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    run = subprocess.run(
        [sys.executable, "-I", "-c", script, str(src)], capture_output=True, text=True, timeout=60
    )
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")

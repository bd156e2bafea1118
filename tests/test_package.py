"""The package namespace is exactly the union of its modules' ``__all__``;
importing the command line loads no module it does not need, and
``freelinks.moves`` loads only when a command or a caller first uses it."""

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


ROOT = Path(__file__).resolve().parent.parent


def test_command_line_import_loads_no_record_code_generation():
    # building records with generated code took most of the import's time,
    # and dataclasses also imports inspect; compared against the modules
    # that interpreter start-up loaded before the import
    src = ROOT / "src"
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
        "import freelinks.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    run = subprocess.run(
        [sys.executable, "-I", "-c", script, str(src)], capture_output=True, text=True, timeout=60
    )
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")


# run with -I in a fresh interpreter: argv[1] is the source directory,
# argv[2] the demo data, argv[3] a scratch directory
LAZY_MOVES = """
import contextlib, importlib, io, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
files = sorted(str(f) for f in Path(sys.argv[2]).iterdir())
scratch = Path(sys.argv[3])
import freelinks
import freelinks.cli
from freelinks.cli import run

def call(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return code, out.getvalue(), err.getvalue()

# the commands that compute no move, on every demo file; invariant and orbit
# exit 3 on some of them, through the same error mapping as a move error
for f in files:
    assert call("validate", f)[0] == 0, f
    assert call("bracket", f)[0] == 0, f
    assert call("invariant", f, "--pair", "1,2")[0] in (0, 3), f
    assert call("orbit", f, "--pair", "1,2")[0] in (0, 3), f
print("freelinks.moves" in sys.modules)

# a move that does not apply: exit 3, one error line and no traceback
trace = scratch / "bad.trace"
trace.write_text("R1_delete x 1:0\\n")
code, out, err = call("replay", files[0], str(trace))
print(code, out == "", err.startswith("error: "), err.count("\\n"), "Traceback" in err)

# the package serves the module's names, and nothing it does not have
moves = importlib.import_module("freelinks.moves")
print(freelinks.random_walk is moves.random_walk, freelinks.moves is moves)
print(freelinks.MoveError is moves.MoveError, set(freelinks.__all__) <= set(dir(freelinks)))
try:
    freelinks.no_such_name
except AttributeError as e:
    print(e)

# the commands that move
code, out, _ = call("compare", *(f for f in files if "triangle" in f))
print(code, out.splitlines()[0])
code, out, _ = call("fuzz", files[0], "--steps", "5", "--seed", "1")
print(code, out.split()[0])
"""


def test_commands_without_moves_never_load_the_move_code(tmp_path):
    paths = (ROOT / "src", ROOT / "demos" / "data", tmp_path)
    run = subprocess.run(
        [sys.executable, "-I", "-c", LAZY_MOVES, *map(str, paths)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout.splitlines() == [
        "False",
        "3 True True 1 False",
        "True True",
        "True True",
        "module 'freelinks' has no attribute 'no_such_name'",
        "0 equal",
        "0 PASS",
    ]


def test_moves_names_resolve_after_a_bare_import():
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); import freelinks; "
        "assert 'freelinks.moves' not in sys.modules; "
        "from freelinks import random_walk; "
        "print(random_walk is sys.modules['freelinks.moves'].random_walk)"
    )
    run = subprocess.run(
        [sys.executable, "-I", "-c", script, str(ROOT / "src")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (run.returncode, run.stdout, run.stderr) == (0, "True\n", "")

"""Write ``tests/data/golden.json``: the command line's output on the demo data.

Every subcommand runs over ``demos/data/*`` through ``cli.run``: ``validate``
and ``bracket`` on each file, ``invariant`` and ``orbit`` for every pair in
1..4, ``fuzz`` with seeds 0-2 and 20 steps with and without
``--forbid-pure``, and ``compare`` on every ordered pair of files at
``--depth 2``.  Each run's stdout, stderr and exit code are recorded, and
``tests/test_golden.py`` checks that they stay byte for byte the same.

Run it from the root of a checkout, after a deliberate change of output:

    PYTHONPATH=src python3 tests/make_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

from freelinks.cli import run

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden.json"


def golden_argvs() -> list[list[str]]:
    """The command lines, with paths relative to the root of the checkout."""
    files = sorted(f"demos/data/{path.name}" for path in (ROOT / "demos" / "data").iterdir())
    argvs = []
    for f in files:
        argvs.append(["validate", f])
        argvs.append(["bracket", f])
        for i in range(1, 5):
            for j in range(1, 5):
                argvs.append(["invariant", f, "--pair", f"{i},{j}"])
                argvs.append(["orbit", f, "--pair", f"{i},{j}"])
        for seed in range(3):
            argvs.append(["fuzz", f, "--steps", "20", "--seed", str(seed)])
            argvs.append(["fuzz", f, "--steps", "20", "--seed", str(seed), "--forbid-pure"])
    for a in files:
        for b in files:
            argvs.append(["compare", a, b, "--depth", "2"])
    return argvs


def capture(argv: list[str]) -> dict:
    """One run of ``cli.run(argv)`` from the root of the checkout."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    finally:
        os.chdir(cwd)
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main() -> None:
    GOLDEN.parent.mkdir(exist_ok=True)
    runs = [capture(argv) for argv in golden_argvs()]
    GOLDEN.write_text(json.dumps(runs, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {len(runs)} runs to {GOLDEN.relative_to(ROOT)}")


if __name__ == "__main__":
    main()

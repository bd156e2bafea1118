"""The examples in README.md and the scripts under demos/ still run as shown."""

import contextlib
import io
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from freelinks.cli import run

ROOT = Path(__file__).resolve().parent.parent


def readme_examples() -> list[tuple[str, str]]:
    """Each ``$ freelinks ...`` line of a README code block with the output
    printed under it, up to the next blank line, prompt or fence."""
    examples = []
    command = None
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if command is not None and (not line or line.startswith(("$ ", "```"))):
            examples.append((command, "".join(text + "\n" for text in output)))
            command = None
        if command is not None:
            output.append(line)
        elif line.startswith("$ freelinks "):
            command, output = line[2:], []
    return examples


EXAMPLES = readme_examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 4


@pytest.mark.parametrize("command, expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example(monkeypatch, command, expected):
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        run(shlex.split(command)[1:])
    assert out.getvalue() == expected


@pytest.mark.parametrize("script", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(script):
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr

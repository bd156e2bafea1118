"""The examples in README.md and the scripts under demos/ still run as shown."""

import argparse
import contextlib
import io
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from freelinks.cli import _build_parser, run

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


def test_readme_usage_matches_parser():
    # each usage line of the "Command line" block names exactly the options
    # that the parser gives its subcommand
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```")[1]
    usage = {}
    for line in block.splitlines():
        if line.startswith("freelinks "):
            usage[line.split()[1]] = set(re.findall(r"--[a-z][a-z-]*", line))
    parser = _build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(usage) == set(commands.choices)
    for name, sub in commands.choices.items():
        options = {
            flag for action in sub._actions for flag in action.option_strings
        } - {"-h", "--help"}
        assert usage[name] == options, name


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

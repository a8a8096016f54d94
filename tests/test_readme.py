"""The README's library quickstart runs as documented, and its command
lines pass the CLI's flag parser and checks."""

import argparse
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from kernelbcd.cli import build_config, build_parser

ROOT = Path(__file__).resolve().parent.parent


def test_readme_quickstart_runs(tmp_path):
    [block] = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", block], capture_output=True, text=True,
        env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""  # no warning either


def _readme_command_lines():
    text = (ROOT / "README.md").read_text()
    lines = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("kernelbcd "):
                lines.append(line)
    return lines


def test_readme_shows_each_command():
    commands = {shlex.split(line)[1] for line in _readme_command_lines()}
    assert commands == {"solve", "path", "compare", "rates-check", "costs"}


@pytest.mark.parametrize(
    "line", _readme_command_lines(), ids=lambda line: shlex.split(line)[1]
)
def test_readme_command_line_is_valid(line):
    # build_config runs every choice and range check and reads no data
    # file, so a renamed or refused flag fails here
    build_config(build_parser().parse_args(shlex.split(line)[1:]))


def _readme_flag_table():
    """The README's command -> flags table: ``| `cmd` | `--a --b` |`` rows."""
    rows = re.findall(r"^\| `([a-z-]+)` \| `([^`]*)` \|$", (ROOT / "README.md").read_text(), re.M)
    return {command: flags.split() for command, flags in rows}


def test_readme_flag_table_is_each_commands_option_set():
    # every command also takes --config and --help
    [subparsers] = [a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)]
    taken = {
        command: [s for a in sub._actions for s in a.option_strings
                  if s not in ("-h", "--help", "--config")]
        for command, sub in subparsers.choices.items()
    }
    assert taken == _readme_flag_table()
    assert {c: len(flags) for c, flags in taken.items()} == {
        "solve": 16, "path": 16, "compare": 15, "costs": 12, "rates-check": 9
    }

"""The README's library quickstart runs as documented, and its command
lines pass the CLI's flag parser and checks."""

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

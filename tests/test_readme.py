"""Every `polyens` command in README's sh blocks runs and exits 0."""

import hashlib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _readme_commands():
    """The `polyens ...` lines of README's sh blocks but for `verify`, whose
    criteria test_acceptance.py runs."""
    blocks = re.findall(r"^```sh\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    lines = [line for block in blocks for line in block.splitlines()]
    cmds = [shlex.split(line, comments=True) for line in lines if line.startswith("polyens ")]
    return [c for c in cmds if c[1] != "verify"]


README_COMMANDS = _readme_commands()


def test_readme_shows_commands():
    assert len(README_COMMANDS) >= 6


def _command_id(cmd):
    """The subcommand and a digest of the whole line, so that no other
    README line can change the id of this one."""
    return f"{cmd[1]}-{hashlib.sha256(shlex.join(cmd).encode()).hexdigest()[:8]}"


@pytest.mark.parametrize("cmd", README_COMMANDS, ids=_command_id)
def test_readme_command_runs(cmd, tmp_path):
    # a subprocess skips pyproject's warning filter: the same gate, by env
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONWARNINGS": "error::RuntimeWarning"}
    proc = subprocess.run(
        [sys.executable, "-m", "polyens", *cmd[1:]],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]

"""Input nested deeper than the parts of the command line that still recurse
(the parser, `derive`, `translate`) can handle is refused cleanly: exit 2
and one line on stderr, never a traceback or the exit code for "false".
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from exsub.cli import main

DEPTH = 3000
BINDERS = "\\x. " * DEPTH + "x"
PARENS = "(" * DEPTH + "x" + ")" * DEPTH


@pytest.mark.parametrize("argv", [
    ["normalize", BINDERS],
    ["fv", PARENS],
    ["check", BINDERS],
    ["check", PARENS, "--context", "{x}"],
    ["reduce", PARENS, "--steps", "5"],
], ids=["normalize", "fv", "check", "check --context", "reduce"])
def test_too_deep_input_is_a_usage_error(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and "nested too deeply" in lines[0]


def test_too_deep_input_exits_2_without_a_traceback():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    r = subprocess.run([sys.executable, "-m", "exsub", "fv", PARENS],
                       capture_output=True, text=True, env=env, timeout=60)
    assert r.returncode == 2
    assert r.stdout == ""
    assert "nested too deeply" in r.stderr and "Traceback" not in r.stderr

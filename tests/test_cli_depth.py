"""Deep input through the command line.  The parser, `fv`, the reducer,
the normal-form checks and the printer keep their own stacks, so `fv`,
`normalize`, `reduce` and `nf` answer input nested 10⁴ deep.  Commands
that still go through a layer that recurses (`derive`, `translate`)
refuse input nested deeper than it can handle cleanly: exit 2 and one
line on stderr, never a traceback or the exit code for "false".
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from exsub.cli import main

DEEP = 10 ** 4
PARENS = "(" * DEEP + "x" + ")" * DEEP
LAMS = "\\x. " * DEEP
PATH = ".".join(["0"] * DEEP)

DEPTH = 3000
BINDERS = "\\x. " * DEPTH + "x"


@pytest.mark.parametrize("argv, code, out", [
    (["fv", PARENS], 0, "{x}\n"),
    (["normalize", LAMS + "(\\y. y) x"], 0, LAMS + "x\n"),
    (["reduce", LAMS + "(\\y. y) x", "--steps", "3"], 0,
     f"{LAMS}(\\y. y) x\nBeta\t{PATH}\t-\t{LAMS}[x/y] * y\nVar\t{PATH}\t-\t{LAMS}x\n"),
    (["nf", LAMS + "x"], 0, "sigma-nf: yes\npure: yes\n"),
], ids=["fv", "normalize", "reduce", "nf"])
def test_deep_input_is_answered(capsys, argv, code, out):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == out and captured.err == ""


@pytest.mark.parametrize("argv", [
    ["check", BINDERS],
    ["check", BINDERS, "--context", "{}"],
    ["good", BINDERS],
    ["translate", BINDERS, "--context", "{}"],
    ["equiv", BINDERS, BINDERS],
    ["reduce", BINDERS, "--context", "{}"],
], ids=["check", "check --context", "good", "translate", "equiv", "reduce --context"])
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
    r = subprocess.run([sys.executable, "-m", "exsub", "check", BINDERS],
                       capture_output=True, text=True, env=env, timeout=60)
    assert r.returncode == 2
    assert r.stdout == ""
    assert "nested too deeply" in r.stderr and "Traceback" not in r.stderr

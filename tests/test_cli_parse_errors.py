"""A term or context that does not parse is a usage error: exit 2, one
`error:` line on stderr, nothing on stdout, and no traceback."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from exsub.cli import main

CASES = [["fv", "(x"], ["check", "x", "--context", "{x"], ["normalize", "\\x."]]
IDS = ["fv", "check --context", "normalize"]


@pytest.mark.parametrize("argv", CASES, ids=IDS)
def test_unparsable_input_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: expected ")


@pytest.mark.parametrize("argv", CASES, ids=IDS)
def test_unparsable_input_exits_2_without_a_traceback(argv):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    r = subprocess.run([sys.executable, "-m", "exsub", *argv],
                       capture_output=True, text=True, env=env, timeout=60)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("error: ") and "Traceback" not in r.stderr

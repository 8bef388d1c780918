"""A reader that closes the output pipe early has chosen to stop: the command
exits 0 and writes nothing on stderr, in particular no traceback."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

C_8 = r"(\f.\x. f (f (f (f (f (f (f (f x))))))))"
MULT = rf"(\m.\n.\f. m (n f)) {C_8} {C_8}"


@pytest.mark.parametrize("trace", ["json", "text"])
def test_closing_the_pipe_after_one_line_exits_0_quietly(trace, tmp_path):
    # the trace is 170 kB as text and 290 kB as JSON, more than a pipe holds
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    err = tmp_path / "stderr"
    with open(err, "wb") as stderr:
        proc = subprocess.Popen(
            [sys.executable, "-S", "-m", "exsub", "reduce", "--steps", "100000",
             "--trace", trace, MULT], env=env, stdout=subprocess.PIPE, stderr=stderr)
        first = proc.stdout.readline()
        proc.stdout.close()
        code = proc.wait(timeout=120)
    assert first.strip()
    assert code == 0
    assert err.read_bytes() == b""

"""`exsub reduce` writes its trace step by step.  A reader that closes the
output pipe early has chosen to stop: the command exits 0 and writes nothing
on stderr, in particular no traceback.  The output is never held whole, so
the peak memory of a long trace stays that of the reduction, and `exsub
normalize` keeps no step either."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import MULT, church

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("trace", ["json", "text"])
def test_closing_the_pipe_after_one_line_exits_0_quietly(trace, tmp_path):
    # the trace is 170 kB as text and 290 kB as JSON, more than a pipe holds
    env = dict(os.environ, PYTHONPATH=str(SRC))
    err = tmp_path / "stderr"
    with open(err, "wb") as stderr:
        proc = subprocess.Popen(
            [sys.executable, "-S", "-m", "exsub", "reduce", "--steps", "100000",
             "--trace", trace, f"{MULT} {church(8)} {church(8)}"],
            env=env, stdout=subprocess.PIPE, stderr=stderr)
        first = proc.stdout.readline()
        proc.stdout.close()
        code = proc.wait(timeout=120)
    assert first.strip()
    assert code == 0
    assert err.read_bytes() == b""


# Runs `exsub ARGS...` in a child with its output sent to the null device,
# and prints the exit code and the child's peak RSS in bytes (ru_maxrss is
# in KiB on Linux, in bytes on macOS).  Linux carries a process's peak RSS
# across exec, so the child is started from this small wrapper, not from the
# test process, whose own peak it would report.
PEAK_RSS = """
import resource, subprocess, sys
code = subprocess.call([sys.executable, "-S", "-m", "exsub", *sys.argv[1:]],
                       stdout=subprocess.DEVNULL)
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(code, peak if sys.platform == "darwin" else peak * 1024)
"""


@pytest.mark.parametrize("trace", ["json", "text"])
def test_a_long_trace_is_written_in_flat_memory(trace):
    # 2*10^4 omega steps are 35 MB of JSON and 32 MB of text; holding the
    # whole output before writing it peaked at 152 and 102 MB
    pytest.importorskip("resource")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    r = subprocess.run(
        [sys.executable, "-S", "-c", PEAK_RSS, "reduce", "--steps", "20000",
         "--trace", trace, r"(\x. x x) (\x. x x)"],
        env=env, capture_output=True, text=True, timeout=120)
    code, peak = map(int, r.stdout.split())
    assert code == 0
    assert peak < 40 * 2**20, f"peak RSS {peak / 2**20:.1f} MB"


def test_normalize_keeps_no_step():
    # 10^5 omega steps; keeping every step until the normal form was
    # printed peaked at 28 MB
    pytest.importorskip("resource")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    r = subprocess.run(
        [sys.executable, "-S", "-c", PEAK_RSS, "normalize", "--fuel", "100000",
         r"(\x. x x) (\x. x x)"], env=env, capture_output=True, text=True, timeout=120)
    code, peak = map(int, r.stdout.split())
    assert code == 0
    assert "fuel 100000 exhausted" in r.stderr
    assert peak < 20 * 2**20, f"peak RSS {peak / 2**20:.1f} MB"

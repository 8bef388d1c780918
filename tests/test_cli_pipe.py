"""`exsub reduce` writes its trace step by step.  A reader that closes the
output pipe early has chosen to stop: the command exits 0 and writes nothing
on stderr, in particular no traceback.  The output is never held whole, so
the peak memory of a long trace stays that of the reduction, and `exsub
normalize` keeps no step either.  The engine's stream, which both read,
keeps each fact of a node on the node, so beyond its term it holds only the
walk's path, however many steps it made."""

from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc
from collections import deque
from itertools import islice
from pathlib import Path

import pytest

from exsub.rewrite import FULL, _stream
from exsub.syntax import parse_term
from exsub.terms import node_size

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


def held_beyond_the_term(term: str, steps: int) -> tuple[int, int]:
    """The bytes that the lo stream of `term` holds after `steps` steps
    beyond what its current term holds, and the size of that term."""
    tracemalloc.start()
    try:
        red, stream = _stream(parse_term(term), FULL, "lo")
        deque(islice(stream, steps), maxlen=0)
        root = red.root         # rebuilt: no frame of the walk holds an old child
        with_stream = tracemalloc.get_traced_memory()[0]
        del red, stream
        return with_stream - tracemalloc.get_traced_memory()[0], node_size(root)
    finally:
        tracemalloc.stop()


def test_the_stream_holds_memory_by_its_term_not_by_its_steps():
    # Every step on this term makes binders, and the term grows with the
    # steps: 343 nodes after 10^4 steps, 1,308 after 4*10^4.  The stream
    # holds 26 bytes per node beyond it, the walk's path.  Memos keyed by
    # id, of contexts and of finished subtrees, held 1.7 and 7.5 MB there
    # (5 and 5.7 kB per node), as they grew by about 190 bytes a step.
    for steps in (10**4, 4 * 10**4):
        held, size = held_beyond_the_term(r"(\x. \z. x x) (\x. \z. x x)", steps)
        assert held < 200 * size, (steps, held, size)

r"""Digests of the whole stdout of `exsub reduce` on `mult c_k c_k`.

The text digests were recorded before the trace printer read the redex's
place off its zipper's ends and cut the contractum's reused parts by their
spans; the JSON digest at k = 12 is the one the benchmark's church
workload checks (k = 8 is pinned in `test_golden_digests`).  Each trace
is the whole normalization: 488 steps at k = 8 and 956 at k = 12.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from exsub.cli import main

from conftest import MULT, church, sha256

TEXT_DIGESTS = {
    8: "29752f944fa59935f9224547c76a4c104e8aa78833aa4362e956beda37372da3",
    12: "169b097936397e534a82f84ac64e38dd352282bd4dccecc727ad9f782b725490",
}


def reduce_stdout(k: int, form: str) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["reduce", f"{MULT} {church(k)} {church(k)}",
                     "--steps", "100000", "--trace", form])
    assert code == 0
    return out.getvalue()


@pytest.mark.parametrize("k", sorted(TEXT_DIGESTS))
def test_reduce_text_trace_digest(k):
    out = reduce_stdout(k, "text")
    assert len(out.splitlines()) == {8: 489, 12: 957}[k]
    assert sha256(out) == TEXT_DIGESTS[k]


def test_reduce_json_trace_digest_at_k_12():
    reference = json.loads((Path(__file__).parents[1] / "perfbench" / "reference.json")
                           .read_text())["trace"]["12"]
    out = reduce_stdout(12, "json")
    assert len(json.loads(out)["steps"]) == reference["steps"] == 956
    assert sha256(out) == reference["stdout_sha256"]

"""Digests of reports and traces, pinned across versions of the engine.

The byte-identity tests elsewhere compare two runs in one process, so a
change that reorders the redex scan, the fresh-name choice or a suite's
generator would still pass them.  The digests below were recorded before
the named and de Bruijn engines were moved onto the shared position table
of `exsub.terms`; a change that alters any of them alters observable
output and must say so.
"""

from __future__ import annotations

import hashlib
import io
from contextlib import redirect_stdout
from random import Random

import pytest

from exsub.cli import main
from exsub.debruijn import UPSILON2, db_find_redexes
from exsub.generators import GenConfig, gen_db_marked
from exsub.rewrite import FULL, normalize
from exsub.suites import SUITES, run_suite
from exsub.syntax import parse_term
from exsub.terms import path_indices

SUITE_DIGESTS = {
    "confluence": "9dbeea5ad73b310db771856922131f5741bb67779ceb886b351e760dfbef6c09",
    "fv-least": "707da6a8c742072a3948a363f2f3e98fcc99ce95c41a863e117564807a985efa",
    "fv-monotone": "be6622ddae01da36b3e2fb1bf4fc92d2397d59d46e4401fcfd69ea87192890a5",
    "join-lemmas": "509f0981698ecead7bf8b0d17948d0463d6b0b558c2ceb74d6bcb08225a52784",
    "lpo-decrease": "9edc4293073469ed03e5dffbc43cd66733563b6d022ee2ed57794c06b482e019",
    "nf-grammar": "c32d2fc8ae4344bbaf3ce45ac900a10c29b6f9166d7bfd415a99265863ed34c9",
    "oracle-equivalence": "1fdafcbf2049692d1bb846641b0849378d3f7c04ff27c6a7ae94de04480f7c82",
    "sigma-alpha-termination":
        "c88e4a05afaf41625c194334939ad506c7257b9bc53cfbe50a6298ddee03dafb",
    "subject-reduction": "6ea6e84f1ffef37211f0f3963511388c4fdcc40c00e7ee0122aeab9eac00e976",
    "translation-simulation":
        "ad649a425898ebb56631038c43ad2403f2bc482001b80ada9b9039c4eb2917c4",
    "upsilon-weights": "3a8138f7fd13d2337981b9d4dcf169b842c3d2602313de961074db4d628a5d9c",
}

MULT = r"(\m. \n. \f. m (n f))"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def church(n: int) -> str:
    return r"(\f. \x. " + "f (" * n + "x" + ")" * n + ")"


def test_every_suite_is_pinned():
    assert sorted(SUITE_DIGESTS) == sorted(SUITES)


@pytest.mark.parametrize("name", sorted(SUITE_DIGESTS))
def test_suite_report_digest(name):
    report = run_suite(name, GenConfig(seed=0, count=50, size=30))
    assert sha256(report.dumps()) == SUITE_DIGESTS[name]


def test_normalize_trace_digest():
    _, trace, exhausted = normalize(parse_term(f"{MULT} {church(4)} {church(4)}"), FULL, "lo")
    assert not exhausted and len(trace.steps) == 180
    assert sha256(trace.to_text()) == (
        "01fc75c75963c1a8cd864eed23162d61fcd4a58b552add6b6e539ed9760be2a8")


def test_reduce_rightmost_innermost_trace_digest():
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["reduce", f"{MULT} {church(3)} {church(3)}",
                     "--strategy", "ri", "--steps", "40"])
    assert code == 0 and out.getvalue().endswith("\n")
    assert sha256(out.getvalue()[:-1]) == (     # the trace's to_text()
        "c97921896b4051c7fb737907efe0433ebd88b357b9c5d69fd65dd4e4eea144a8")


def test_de_bruijn_scan_order_digest():
    rng, cfg = Random(0), GenConfig(seed=0)
    found = []
    for _ in range(200):
        a = gen_db_marked(rng, cfg, rng.randint(2, 14))
        found.append([(path_indices(p), r) for p, r in db_find_redexes(a, UPSILON2)])
    assert sha256(repr(found)) == (
        "45c6395e9375280a03f9caf247445c6ff8f29c1373564d854751b2403ffbe0c6")

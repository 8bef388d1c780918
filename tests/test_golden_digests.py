"""Digests of reports and traces, pinned across versions of the engine.

The byte-identity tests elsewhere compare two runs in one process, so a
change that reorders the redex scan, the fresh-name choice or a suite's
generator would still pass them.  The digests below were recorded before
the named and de Bruijn engines were moved onto the shared position table
of `exsub.terms`, the path-order digest before labelled terms became
plain tuples, and the digests of reductions of arbitrary (mostly
ill-formed) terms and of the named scan order before leftmost-outermost
reduction resumed next to the last contraction; a change that alters any
of them alters observable output and must say so.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout
from pathlib import Path
from random import Random

import pytest

from exsub.cli import main
from exsub.debruijn import (UPSILON2, db_apply, db_find_redexes,
                            db_normalize_upsilon, print_db)
from exsub.generators import GenConfig, gen_db_marked, gen_raw_term
from exsub.rewrite import FULL, SIGMA, SIGMA_ALPHA, find_redexes, normalize
from exsub.suites import SUITES, run_suite
from exsub.syntax import parse_term
from exsub.terms import path_indices
from exsub.termination import label, lpo_gt, weight

from conftest import MULT, church, sha256

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

# The same at seed 1, recorded before each suite became a draw and a check.
SUITE_DIGESTS_SEED1 = {
    "confluence": "52f8e09216afb569b7d9ea8acb99d471d977a8fe1d642f2207d7d60a90dba908",
    "fv-least": "0050b3c0efadec390a21c378d81cc07428a2f610721ce8b6595e7feb631f9da6",
    "fv-monotone": "b477636f09333aa7cbebaed9c7dd7739853da0633e33035340882acc723c0baf",
    "join-lemmas": "26f3d66334e54c8e11ef38069da95b644b87a874f6f13aa75a8641e647df61f0",
    "lpo-decrease": "909db0ca04ffbb85d74a88fef31d03208dab9c7c8037b59a8fc6b45813e08463",
    "nf-grammar": "8ba64b997ef965717f24b21e739afd89857b020cd2172824119f4838b63fb0c1",
    "oracle-equivalence": "0e59715881f16c7193c6afddf20371fa85c0817eb4e0c7bd36c814f5919b6ef6",
    "sigma-alpha-termination":
        "261b78d0e214463b028dbb9b9a5346f81ebd543843646c8b36467dbe6d1d81b0",
    "subject-reduction": "e9826c343b254aeac51efd1adc0e2c605712fdc40579eb6302c9bac8ba0f85f4",
    "translation-simulation":
        "d5799dd8514eb0a5fa8c2ac8f744fdbe655982fef0a014bc6f5730fc3397512a",
    "upsilon-weights": "40e1efef5c788cc9840559e5bd2d422cd960c78b98dfb9e2421f84e1939132eb",
}

def test_every_suite_is_pinned():
    assert sorted(SUITE_DIGESTS) == sorted(SUITE_DIGESTS_SEED1) == sorted(SUITES)


@pytest.mark.parametrize("name", sorted(SUITE_DIGESTS))
def test_suite_report_digest(name):
    report = run_suite(name, GenConfig(seed=0, count=50, size=30))
    assert sha256(report.dumps()) == SUITE_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(SUITE_DIGESTS_SEED1))
def test_suite_report_digest_at_seed_1(name):
    report = run_suite(name, GenConfig(seed=1, count=50, size=30))
    assert sha256(report.dumps()) == SUITE_DIGESTS_SEED1[name]


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


def test_reduce_json_trace_digest():
    # the digest the benchmark checks its church workload against, so that
    # the JSON writer is checked on every Python version CI runs
    reference = json.loads((Path(__file__).parents[1] / "perfbench" / "reference.json")
                           .read_text())
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["reduce", f"{MULT} {church(8)} {church(8)}",
                     "--steps", "100000", "--trace", "json"])
    assert code == 0
    assert sha256(out.getvalue()) == reference["trace"]["8"]["stdout_sha256"]


def test_de_bruijn_scan_order_digest():
    rng = Random(0)
    found = []
    for _ in range(200):
        a = gen_db_marked(rng, rng.randint(2, 14))
        found.append([(path_indices(p), r) for p, r in db_find_redexes(a, UPSILON2)])
    assert sha256(repr(found)) == (
        "45c6395e9375280a03f9caf247445c6ff8f29c1373564d854751b2403ffbe0c6")


def test_path_order_digest():
    # The lpo-decrease report counts only failures, so it cannot tell a
    # path order that orients every step from the right one.  This pins
    # both directions on unrelated pairs and on every upsilon2 step.
    rng = Random(7)
    found = []
    for _ in range(1500):
        a = gen_db_marked(rng, rng.randint(2, 16))
        b = gen_db_marked(rng, rng.randint(2, 16))
        la, lb = label(a), label(b)
        found += [lpo_gt(la, lb), lpo_gt(lb, la), weight(a)]
        for p, r in db_find_redexes(a, UPSILON2):
            lc = label(db_apply(a, p, r))
            found += [lpo_gt(la, lc), lpo_gt(lc, la)]
    assert sha256(repr(found)) == (
        "ab01409b0a530cde79d4bbe81fd8deb802d715f786cc671beaeb3dda95d8c1cf")


# Suite reports hold only counts, so they stay byte-identical when the
# engine picks other redexes on ill-formed input; these traces would not.
RAW_LO_TRACE_DIGESTS = {
    "full": (FULL, "7d31751069a174ff74986c37f43bea95861b124bd2c7c1c9012454d489a43c32"),
    "sigma": (SIGMA, "a0d36efadd1d150110b452dc629e1e465d45638ad146e0e0043420db021c3696"),
    "sigma-alpha":
        (SIGMA_ALPHA, "d7f837e6fec769fccb9a362baa6a4616f223fb1e2b8839783c6a9822073c33a3"),
}


@pytest.mark.parametrize("name", sorted(RAW_LO_TRACE_DIGESTS))
def test_raw_term_lo_trace_digest(name):
    rules, digest = RAW_LO_TRACE_DIGESTS[name]
    rng = Random(0)
    out = []
    for _ in range(300):
        t = gen_raw_term(rng, rng.randint(2, 20))
        _, trace, exhausted = normalize(t, rules, "lo", 200)
        out.append(f"{trace.to_text()}\n{exhausted}")
    assert sha256("\n\n".join(out)) == digest


def test_raw_term_scan_order_digest():
    rng = Random(0)
    found = []
    for _ in range(300):
        t = gen_raw_term(rng, rng.randint(2, 20))
        found.append([(path_indices(p), r) for p, r in find_redexes(t, FULL)])
    assert sha256(repr(found)) == (
        "a3c3d46fe7c319f704a09f14f7b21534a62b881d8ab2bfbfcab3d865296dd386")


def test_de_bruijn_upsilon_normal_form_digest():
    rng = Random(0)
    nfs = [print_db(db_normalize_upsilon(gen_db_marked(rng, rng.randint(2, 20))))
           for _ in range(300)]
    assert sha256("\n".join(nfs)) == (
        "a1db348c00ebb63fae7afa3167e740cf701e1c114b1d7b16336c3f06ff24899b")

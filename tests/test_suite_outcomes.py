"""Digests of suite reports whose trials fail or prove nothing.

`SUITE_DIGESTS` in test_golden_digests pins passing runs only.  Here one
check a suite makes is wrong on every k-th call, or the fuel is starved,
so the failing and inconclusive branches of every suite, and the text
they report, are pinned as well.  The digests were recorded before the
suites became generators of trial outcomes, and still hold now that each
suite is a draw and a check.  A check that raises fails its trial on the
trial's own term and context, and the report goes on; a draw that raises
has no term to show, so its failure shows `-` and the draws start again.
"""

from __future__ import annotations

from random import Random

import pytest

from exsub import checks, rewrite
from exsub.cli import main
from exsub.debruijn import print_db
from exsub.generators import GenConfig
from exsub.judgements import NotDerivable, derive
from exsub.normalforms import ContainsBlock
from exsub.suites import run_suite
from exsub.syntax import parse_context, parse_term
from exsub.terms import Comp, Lam

from conftest import sha256

CFG = dict(seed=1, count=60, size=30)

FORCED = NotDerivable((), "forced")
BLOCK = ContainsBlock(parse_term("[y/z] * x"))

# (suite, name in exsub.checks, k, its wrong answer on every k-th call or
#  the exception it raises then, digest of the report)
BROKEN = [
    ("subject-reduction", "db_check", 3, False,
     "4969b115e9ef339669df3fbbe24786f0cc6fbbb9c3f7ad55e7e5e89347c5cd87"),
    ("subject-reduction", "derive", 3, FORCED,
     "a7b992517545dca95f444a741cd2edf64e863e4e3901c56184394fbed4f73f4f"),
    ("fv-monotone", "ctx_le", 3, False,
     "8491a32eb04994eeac917973ecb95a407d84d4c8d85e7f0f963aecefe60b36c9"),
    ("fv-least", "ctx_le", 3, False,
     "579948bc1ed75b69753a9e9cab3d2536ff818d3745ef2c3b2217321c5ac3d27f"),
    ("fv-least", "fv", 3, None,
     "2e26db9663df503dc97e4b7dd6838bd75285b99930442ac44eada7d6b0bc80d0"),
    ("fv-least", "derive", 3, FORCED,
     "a7294b84d08b3e1f4ab111c53d8db44d9736f557022720eaac7c6e01759e4ef2"),
    ("sigma-alpha-termination", "is_sigma_nf", 3, False,
     "37b248dd31863cb4cec001960c5b4089898ddb5e583a1729a839d3779af08b2e"),
    ("confluence", "equiv_gamma", 3, False,
     "fb005a9a5b706b745b887824bcc8e65ef54927ac71a06918c5bc58e338e8e475"),
    ("translation-simulation", "db_one_step_reducts", 3, (),
     "d7e0f27ac94d33c88024c18c217c23923da7395555c44324bfc3264d1c62b081"),
    ("translation-simulation", "_search_upsilon2", 3, None,
     "232abe498b828918de9a8b0ce3bd73f68334682720e077fa18fcfd114ef97d57"),
    ("translation-simulation", "_search_upsilon2", 4, False,
     "6520db9d2297490e629928b6cbbac9e842a8f62f7168ee94664c81fddeed8f2b"),
    ("translation-simulation", "db_normalize_upsilon", 2, None,
     "f7634b19c75b88626026efdd12f649e8fd01dee3ef9a5c546b49371f9bd3e23b"),
    ("upsilon-weights", "weights12", 3, (0, 0),
     "7f77bc780bad1ec04db0afffcd78e06af265f8f21ab1b184f6e72021401bd76c"),
    ("lpo-decrease", "lpo_gt", 3, False,
     "f3af2247a5e16181e971027221e3e98a3e4a6015ecedb3927dfdda13ad4337e9"),
    ("join-lemmas", "_joinable", 11, False,
     "30ba810d47a911dbbefe9536d5b033a97fdf4f88506d7bfd665902fa6ca10dd3"),
    ("nf-grammar", "is_sigma_nf", 3, False,
     "e2d20f53436045de1a00bfefffdac64c1e4d0f6681215fa7d279e2b7b987bbe3"),
    ("nf-grammar", "to_pure", 2, BLOCK,
     "951e3ddb4dc1ddae3f05d9ca3b04ad7c6371d9c1d69006909fd5625a096a6bb3"),
    ("oracle-equivalence", "alpha_eq", 3, False,
     "b150cce04c0f0e53063bd164849561bff5d67c0c22180d9395c4021e76a54dcc"),
    ("oracle-equivalence", "to_pure", 3, BLOCK,
     "149bbf089d464230178b0ac5a4bee39d72a03699ddcd408414d86e8262ac5987"),
]

# (suite, fuel, digest of the report)
STARVED = [
    ("sigma-alpha-termination", 3,
     "efa8f22da4e895d8f43e44de366af977a7975e0d1e9749ce49e966d17bb57405"),
    ("sigma-alpha-termination", 8,
     "c871b884d8a72a467cc3ea8f940dd4ba22554e71e176e148881571d192154d6b"),
    ("confluence", 3,
     "bee38825bd8345a60b47929c5ce86296af5094f5abec9fb0dbb402b99d3292ff"),
    ("confluence", 8,
     "7835bd501818c2f73428a89ad1a30052737375ddecc947f57a34c2bcd10e2f35"),
    ("nf-grammar", 3,
     "ddc390670281e620e83175dad719518dcbea658ec872df9a42bc05e9c0eca115"),
    ("nf-grammar", 8,
     "8358205088536ac0f6cfd59f6566b3204bb93f3165af2ed3adcdcd5a85cec897"),
    ("oracle-equivalence", 3,
     "1003387b6a940ed083b567227f791faeee8993819289755533ad354cbae36ecc"),
    ("oracle-equivalence", 8,
     "f177d707fe0183e01f9376e4aad60369166858f8d53bc1fd23137adde239d6ea"),
]


def wrong_every(k, real, wrong):
    calls = [0]

    def fake(*args):
        calls[0] += 1
        if calls[0] % k:
            return real(*args)
        if isinstance(wrong, Exception):
            raise wrong
        return wrong
    return fake


@pytest.mark.parametrize("suite, name, k, wrong, digest", BROKEN,
                         ids=[f"{s}-{n}-{k}" for s, n, k, _, _ in BROKEN])
def test_report_of_a_broken_check(monkeypatch, suite, name, k, wrong, digest):
    monkeypatch.setattr(checks, name, wrong_every(k, getattr(checks, name), wrong))
    report = run_suite(suite, GenConfig(**CFG))
    assert report.failures or report.inconclusives
    assert report.passes + len(report.failures) + report.inconclusives == report.trials
    assert sha256(report.dumps()) == digest


@pytest.mark.parametrize("suite, fuel, digest", STARVED,
                         ids=[f"{s}-{f}" for s, f, _ in STARVED])
def test_report_of_a_starved_suite(suite, fuel, digest):
    report = run_suite(suite, GenConfig(fuel=fuel, **CFG))
    assert report.failures or report.inconclusives
    assert sha256(report.dumps()) == digest


def test_a_check_that_raises_fails_its_trial_and_the_suite_goes_on(monkeypatch, capsys):
    # the check raises on its fifth call only; the failure shows the drawn
    # term and context, and the draws go on to every trial that is left
    calls, real = [0], checks.derive

    def derive(*args):
        calls[0] += 1
        if calls[0] == 5:
            raise FORCED
        return real(*args)

    monkeypatch.setattr(checks, "derive", derive)
    report = run_suite("translation-simulation", GenConfig(**CFG))
    assert report.trials == CFG["count"]
    assert [(f.term, f.context, f.detail) for f in report.failures] == [
        (r"[[\z. z/y] * y/z] * \w. W w * [z z/w] * w", "{}", "raised NotDerivable: forced")]
    assert report.passes + len(report.failures) + report.inconclusives == report.trials
    assert report.to_text().count("FAIL trial") == 1

    calls[0] = 0
    argv = ["test", "translation-simulation"] + [f"--{k}={v}" for k, v in CFG.items()]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out.strip() == report.to_text()
    assert err == ""


def test_every_trial_that_raises_under_a_wrong_rule_keeps_its_term(monkeypatch):
    # Lambda without its lift: [s] * \x. a -> \x. [s] * a.  About half of
    # the failing trials raise, because the contractum no longer derives.
    monkeypatch.setitem(rewrite._CONTRACT, rewrite.LAMBDA,
                        lambda t: Lam(t.body.var, Comp(t.sub, t.body.body)))
    report = run_suite("translation-simulation", GenConfig(seed=0, count=200))
    assert [f.trial for f in report.failures] == [
        1, 4, 21, 48, 53, 59, 75, 76, 77, 83, 99, 100, 101, 112, 113, 118, 129, 135,
        154, 159, 167, 172, 183, 187]
    raised = [f for f in report.failures if f.detail.startswith("raised ")]
    assert [f.trial for f in raised] == [4, 21, 59, 75, 76, 100, 112, 113, 159, 167, 187]
    assert all("-" not in (f.term, f.context) for f in report.failures)
    for f in raised:
        derive(parse_context(f.context), parse_term(f.term))


def test_a_draw_that_raises_fails_with_no_term_and_the_draws_start_again(monkeypatch):
    # the per-redex draw scans each term it draws; recorded before the
    # suites were split into a draw and a check
    monkeypatch.setattr(checks, "db_find_redexes",
                        wrong_every(3, checks.db_find_redexes, RuntimeError("forced")))
    report = run_suite("upsilon-weights", GenConfig(**CFG))
    assert len(report.failures) == 23
    assert {(f.term, f.context, f.detail) for f in report.failures} == {
        ("-", "-", "raised RuntimeError: forced")}
    assert sha256(report.dumps()) == (
        "b210edea9f33bd5b569a1798f48883a66ef872bd7d836209b573e81d5d90fb5b")


def test_a_join_lemmas_trial_that_raises_shows_its_first_pair(monkeypatch):
    # every trial normalizes ten sides, so each one reaches a raise before
    # its check draws anything: the draws alone replay the trials
    monkeypatch.setattr(checks, "upsilon_nf",
                        wrong_every(9, checks.upsilon_nf, RuntimeError("forced")))
    cfg = GenConfig(**CFG)
    report = run_suite("join-lemmas", cfg)
    assert len(report.failures) == cfg.count
    trials = checks._join_pairs(cfg, Random(cfg.seed))
    for f in report.failures:
        left, right, *_ = next(trials)
        assert (f.term, f.context, f.detail) == (
            print_db(left), print_db(right), "raised RuntimeError: forced")


def test_the_marked_search_reports_a_goal_it_reached_before_the_cap(monkeypatch):
    # the term has two one-step reducts; with room for only one of them, the
    # search reaches either as a goal, but not an unreachable one
    from exsub.debruijn import UPSILON2, One, db_one_step_reducts, translate
    from exsub.freevars import fv
    t = parse_term("([a/x] * x) ([b/y] * y)")
    a = translate(derive(fv(t), t), UPSILON2)
    reducts = db_one_step_reducts(a, UPSILON2)
    assert len(set(reducts)) == 2
    assert checks._search_upsilon2(a, One(), 8) is False
    monkeypatch.setattr(checks, "_SEARCH_CAP", 2)
    for goal in reducts:
        assert checks._search_upsilon2(a, goal, 8) is True
    assert checks._search_upsilon2(a, a, 8) is True
    assert checks._search_upsilon2(a, One(), 8) is None

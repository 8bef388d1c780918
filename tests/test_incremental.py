r"""Leftmost-outermost reduction that resumes next to the last contraction
must pick the same redexes as a rescan from the root.

The oracles are the simple engines of `conftest`: take the first redex
that the full scan lists, contract it with `apply_rule` (or `db_apply`),
repeat.
"""

from __future__ import annotations

from random import Random

import pytest

from exsub.debruijn import (DApp, DComp, DSlash, FreeName, One, db_find_redexes,
                            db_normalize_upsilon)
from exsub.generators import gen_db, gen_db_marked
from exsub.rewrite import (RULE_SETS, SIGMA, SIGMA_ALPHA, _rule_finder, apply_rule,
                           find_redexes, normalize)
from exsub.syntax import parse_term
from exsub.terms import App, Lam, LeftmostOutermost, VarRef, path_indices

from conftest import named_inputs, oracle_db_normalize, oracle_normalize


def assert_matches_the_oracle(t, rules, fuel):
    """The lo walk's normal form, exhaustion flag, trace and printed trace
    are the oracle's.  The trace is printed before any result is read, so
    that its steps are spliced; its results are replayed after."""
    nf, trace, exhausted = normalize(t, rules, "lo", fuel)
    e_nf, e_trace, e_exhausted = oracle_normalize(t, rules, fuel)
    assert trace.to_text() == e_trace.to_text()
    assert (nf, exhausted) == (e_nf, e_exhausted)
    assert trace == e_trace
    return trace, exhausted


@pytest.mark.parametrize("fuel", [300, 7])
@pytest.mark.parametrize("name", sorted(RULE_SETS))
def test_lo_traces_match_the_rescanning_oracle(name, fuel):
    # At fuel 7 many walks stop mid-term, so the normal form returned is
    # the root read while frames above the last redex are still stale.
    for t in named_inputs(fuel, 120):
        assert_matches_the_oracle(t, RULE_SETS[name], fuel)


def test_upsilon_normal_forms_match_the_rescanning_oracle():
    rng = Random(3)
    for _ in range(300):
        for a in (gen_db(rng, rng.randint(0, 2), rng.randint(2, 20)),
                  gen_db_marked(rng, rng.randint(2, 20))):
            assert db_normalize_upsilon(a) == oracle_db_normalize(a)


PINNED = r"{w y} * W w * \w. y"


def test_pinned_alpha_above_the_grandparent():
    # W at 0.1.1 makes the free-variable context of the whole term defined,
    # which turns the binder at the root, three levels up, into an Alpha
    # redex.
    trace, exhausted = assert_matches_the_oracle(parse_term(PINNED), SIGMA_ALPHA, 10000)
    assert not exhausted
    rows = [(s.rule, path_indices(s.at), s.fresh) for s in trace.steps]
    assert len(rows) == 9
    assert rows[4] == ("W", [0, 1, 1], None)
    assert rows[5] == ("Alpha", [], "z")


def test_pinned_needs_the_unsettled_binders():
    # Without re-checking binders whose context was undefined, the walk
    # resumes at the grandparent of 0.1.1 and misses the root.
    memo = {}
    finder = _rule_finder(SIGMA_ALPHA, memo)
    lo = LeftmostOutermost(parse_term(PINNED), lambda u: finder(u) or None)
    rows = []
    while len(rows) < 6 and (picked := lo.next_redex()) is not None:
        path, rule = picked
        lo.replace(apply_rule(lo.focus, (), rule, _memo=memo)[0])
        rows.append((rule, path_indices(path)))
    assert rows[4] == ("W", [0, 1, 1])
    assert rows[5] == ("IdVar", [0, 1])


def test_replace_needs_a_found_redex():
    lo = LeftmostOutermost(parse_term("x"), lambda u: None)
    assert lo.next_redex() is None
    with pytest.raises(ValueError):
        lo.replace(parse_term("y"))


def test_a_found_redex_is_kept_until_it_is_replaced():
    lo = LeftmostOutermost(parse_term("x ([y/z] * z)"), _rule_finder(SIGMA, {}))
    first = lo.next_redex()
    assert first == ((1,), "Var") and lo.next_redex() is first


def test_the_walk_stays_ended_and_keeps_the_normal_form():
    t = parse_term(r"\w. x ([y/z] * z)")
    lo = LeftmostOutermost(t, _rule_finder(SIGMA, {}))
    while (picked := lo.next_redex()) is not None:
        lo.replace(apply_rule(lo.focus, (), picked[1])[0])
    assert lo.next_redex() is None and lo.next_redex() is None
    assert lo.root == parse_term(r"\w. x y") == normalize(t, SIGMA)[0]


DEPTH = 5000    # well past the default recursion limit


def spine(t):
    """The length of the chain f (f (... u)) and its tail u."""
    n = 0
    while isinstance(t, (App, DApp)) and t.fn in (VarRef("f"), FreeName("f")):
        n, t = n + 1, t.arg
    return n, t


def chain(tail, app=App, f=VarRef("f")):
    for _ in range(DEPTH):
        tail = app(f, tail)
    return tail


def test_deep_named_term():
    t = chain(App(Lam("x", VarRef("x")), VarRef("y")))
    path = (1,) * DEPTH
    assert find_redexes(t) == [(path, "Beta")]
    beta, _ = apply_rule(t, path, "Beta")
    assert spine(beta)[0] == DEPTH and spine(beta)[1].body == VarRef("x")
    nf, trace, exhausted = normalize(t)
    assert [s.rule for s in trace.steps] == ["Beta", "Var"] and not exhausted
    assert spine(nf) == (DEPTH, VarRef("y"))


def test_deep_binder():
    # Alpha at the root binder needs the free-variable context of the
    # whole chain below it.
    t = Lam("f", chain(App(Lam("x", VarRef("x")), VarRef("y"))))
    nf, trace, exhausted = normalize(t)
    assert [s.rule for s in trace.steps] == ["Beta", "Var"] and not exhausted
    assert nf.var == "f" and spine(nf.body) == (DEPTH, VarRef("y"))


def test_deep_de_bruijn_term():
    a = chain(DComp(DSlash(FreeName("y")), One()), DApp, FreeName("f"))
    assert db_find_redexes(a) == [((1,) * DEPTH, "Var")]
    assert spine(db_normalize_upsilon(a)) == (DEPTH, FreeName("y"))

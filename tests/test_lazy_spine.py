r"""The lo walk rebuilds the spine lazily (a zipper) and its trace builds
results on demand; both must give what rebuilding the whole term after
every step gives.

The oracle is the rescanning engine of `conftest`: every step contracts
the first redex of a scan of the whole term with `apply_rule`, which
rebuilds the spine up to the root, and every trace step holds its result.
`test_incremental` checks whole lo traces with the printed trace read
first; here every result is read before the trace is printed.
"""

from __future__ import annotations

from random import Random

import pytest

from exsub import rewrite, terms
from exsub.debruijn import db_normalize_upsilon
from exsub.generators import gen_db, gen_db_marked
from exsub.rewrite import (FULL, RULE_SETS, SIGMA_ALPHA, TraceStep, apply_rule, normalize,
                           step)
from exsub.syntax import parse_term
from exsub.terms import App, Comp, Lam, Lift, Slash, VarRef

from conftest import mult, named_inputs, oracle_db_normalize, oracle_normalize


@pytest.mark.parametrize("fuel", [300, 7])
@pytest.mark.parametrize("name", sorted(RULE_SETS))
def test_lazy_walk_matches_the_eager_walk(name, fuel):
    # At fuel 7 many walks stop mid-term, so the normal form returned is
    # the root read while frames above the last redex are still stale.
    rules = RULE_SETS[name]
    for t in named_inputs(fuel, 60):
        nf, trace, exhausted = normalize(t, rules, "lo", fuel)
        e_nf, e_trace, e_exhausted = oracle_normalize(t, rules, fuel)
        assert (nf, exhausted) == (e_nf, e_exhausted)
        assert trace == e_trace
        assert trace.to_text() == e_trace.to_text()


@pytest.mark.parametrize("name", sorted(RULE_SETS))
def test_results_read_last_first(name):
    rules = RULE_SETS[name]
    for t in named_inputs(11, 60):
        nf, trace, _ = normalize(t, rules, "lo", 300)
        _, e_trace, _ = oracle_normalize(t, rules, 300)
        if trace.steps:
            assert trace.steps[-1].result == nf == e_trace.steps[-1].result
        assert [s.result for s in reversed(trace.steps)] == \
            [s.result for s in reversed(e_trace.steps)]


@pytest.mark.parametrize("name", sorted(RULE_SETS))
def test_step_matches_the_eager_walk(name):
    rules = RULE_SETS[name]
    for t in named_inputs(5, 60):
        got = step(t, rules)
        _, e_trace, _ = oracle_normalize(t, rules, 1)
        if not e_trace.steps:
            assert got is None
            continue
        s = e_trace.steps[0]
        assert got == (s.result, s.rule, s.at, s.fresh)


def test_pinned_unsettled_binder():
    t = parse_term(r"{w y} * W w * \w. y")
    nf, trace, exhausted = normalize(t, SIGMA_ALPHA)
    assert (nf, trace, exhausted) == oracle_normalize(t, SIGMA_ALPHA, 10000)
    assert [s.rule for s in trace.steps][4:6] == ["W", "Alpha"]


def test_db_normalize_upsilon_matches_the_eager_walk():
    rng = Random(4)
    for _ in range(200):
        for a in (gen_db(rng, rng.randint(0, 2), rng.randint(2, 20)),
                  gen_db_marked(rng, rng.randint(2, 20))):
            assert db_normalize_upsilon(a) == oracle_db_normalize(a)


@pytest.mark.parametrize("k", [4, 20])
def test_rebuilds_per_step_do_not_grow_with_depth(monkeypatch, k):
    # Rebuilding up to the root made 6.6 one-level rebuilds per step at
    # k = 4 and 29.7 at k = 20.  Every rebuilder of every node class is
    # counted, whoever calls it; the lower bound fails if the walk
    # rebuilds through anything else.
    calls = 0

    def counting(rebuild):
        def count(node, new):
            nonlocal calls
            calls += 1
            return rebuild(node, new)
        return count

    for cls in (App, Lam, Comp, Slash, Lift):
        for field, rebuild in cls._rebuild.items():
            monkeypatch.setitem(cls._rebuild, field, counting(rebuild))
    nf, trace, exhausted = normalize(mult(k), FULL)
    monkeypatch.undo()
    assert not exhausted and len(trace.steps) > 0
    assert len(trace.steps) <= calls <= 3 * len(trace.steps)
    if k == 4:
        assert (nf, trace) == oracle_normalize(mult(k), FULL, 10000)[:2]


def test_long_trace_resolves_without_recursion():
    omega = App(Lam("x", App(VarRef("x"), VarRef("x"))),
                Lam("x", App(VarRef("x"), VarRef("x"))))
    nf, trace, exhausted = normalize(omega, FULL, "lo", 5000)
    assert exhausted and len(trace.steps) == 5000
    last = trace.steps[-1].result           # read before any other step
    _, e_trace, _ = oracle_normalize(omega, FULL, 5000)
    assert last == nf == e_trace.steps[-1].result
    assert trace.steps[2500] == e_trace.steps[2500]


@pytest.mark.parametrize("strategy", ["ri", 1], ids=["ri", "index:1"])
def test_rescanned_steps_keep_the_term_the_rescan_built(strategy, monkeypatch):
    # the rescan rebuilds the whole term at each step; reading the results
    # must not rebuild it again
    omega = parse_term(r"(\x. x x) (\x. x x)")
    start = omega if strategy == "ri" else App(omega, omega)
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return terms.replace_at(*args)

    monkeypatch.setattr(rewrite, "replace_at", counting)
    nf, trace, exhausted = normalize(start, FULL, strategy, 5000)
    made = calls
    results = [s.result for s in trace.steps]
    assert calls == made
    monkeypatch.undo()
    assert exhausted and results[-1] == nf
    for before, s, result in zip([start] + results, trace.steps, results):
        assert apply_rule(before, s.at, s.rule)[0] == result


def test_replayed_step_equals_an_eager_one():
    t = parse_term(r"(\x. x) y")
    _, trace, _ = normalize(t, FULL)
    (beta, var) = trace.steps
    eager = TraceStep("Beta", (), None, parse_term("[y/x] * x"))
    assert beta == eager and hash(beta) == hash(eager) and repr(beta) == repr(eager)
    assert var != eager

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


def counting_replays(monkeypatch) -> list:
    """Count the engine's calls of `replace_at` from now on."""
    calls = []

    def counting(*args):
        calls.append(args[1])
        return terms.replace_at(*args)

    monkeypatch.setattr(rewrite, "replace_at", counting)
    return calls


def held(trace) -> list[int]:
    """The indices of the steps that hold their result now."""
    return [i for i, s in enumerate(trace.steps) if s._result is not None]


@pytest.mark.parametrize("strategy", ["ri", 1], ids=["ri", "index:1"])
def test_rescanned_steps_keep_the_term_the_rescan_built(strategy, monkeypatch):
    # the rescan rebuilds the whole term at each step; reading the results
    # must not rebuild it again
    omega = parse_term(r"(\x. x x) (\x. x x)")
    start = omega if strategy == "ri" else App(omega, omega)
    calls = counting_replays(monkeypatch)
    nf, trace, exhausted = normalize(start, FULL, strategy, 5000)
    made = len(calls)
    results = [s.result for s in trace.steps]
    assert len(calls) == made
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


def test_an_in_order_read_holds_one_replayed_result(monkeypatch):
    # each read replays its own step alone, from the result the read before
    # built, and releases that one
    _, e_trace, _ = oracle_normalize(mult(8), FULL, 10000)
    nf, trace, _ = normalize(mult(8), FULL)
    calls = counting_replays(monkeypatch)
    results = [s.result for s in trace.steps]
    assert len(calls) == len(trace.steps) > 100
    assert held(trace) == [len(trace.steps) - 1]
    monkeypatch.undo()
    assert results == [s.result for s in e_trace.steps] and results[-1] == nf


def test_released_results_are_rebuilt_when_read_again():
    _, e_trace, _ = oracle_normalize(mult(8), FULL, 10000)
    _, trace, _ = normalize(mult(8), FULL)
    for s in trace.steps:
        s.result
    pairs = list(zip(trace.steps, e_trace.steps))
    for s, e in pairs[::7]:
        assert s.result == e.result
    for s, e in reversed(pairs):
        assert s.result == e.result


def test_a_reverse_read_builds_each_result_once(monkeypatch):
    # the last step replays every step, and keeps every result it builds,
    # so the reads after it replay nothing
    _, e_trace, _ = oracle_normalize(mult(8), FULL, 10000)
    _, trace, _ = normalize(mult(8), FULL)
    calls = counting_replays(monkeypatch)
    results = [s.result for s in reversed(trace.steps)]
    assert len(calls) <= len(trace.steps)
    assert held(trace) == list(range(len(trace.steps)))
    monkeypatch.undo()
    assert results == [s.result for s in reversed(e_trace.steps)]


def test_equality_and_hash_after_partial_reads():
    t = mult(5)
    _, read, _ = normalize(t, FULL)
    for s in read.steps[3::4] + read.steps[10:30] + read.steps[50:40:-1]:
        s.result
    assert 1 < len(held(read)) < len(read.steps)
    _, fresh, _ = normalize(t, FULL)
    assert hash(read) == hash(normalize(t, FULL)[1])
    assert read == fresh and hash(read) == hash(fresh)
    assert read == oracle_normalize(t, FULL, 10000)[1]


@pytest.mark.parametrize("term", [r"z ((\x. x) y)", r"(\x. x) y"], ids=["below", "root"])
def test_a_stream_step_under_lo_keeps_no_term(term):
    # the stream links no step to the one before it, so there is nothing
    # to replay from; the reducer's root is the term after the step
    red, stream = rewrite._stream(parse_term(term), FULL, "lo")
    s = next(stream)
    assert (s.rule, s.at) == ("Beta", (1,) if term.startswith("z") else ())
    with pytest.raises(ValueError, match="stream keeps no term.*root"):
        s.result
    assert repr(s) == f"TraceStep(rule='Beta', at={s.at!r}, fresh=None, result=<not kept>)"
    assert red.root == normalize(parse_term(term), FULL, "lo", 1)[1].steps[0].result

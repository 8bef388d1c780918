r"""The lo walk rebuilds the spine lazily (a zipper) and its trace builds
results on demand; both must give what rebuilding the whole spine after
every step gives.

The oracle below is that eager walk, kept here as it was: every `replace`
rebuilds each frame up to the root, and every trace step holds its result.
"""

from __future__ import annotations

from random import Random

import pytest

from exsub import rewrite, terms
from exsub.debruijn import SYSTEM_RULES, UPSILON, _node_rules, db_apply, db_normalize_upsilon
from exsub.freevars import _fv
from exsub.generators import (GenConfig, gen_db, gen_db_marked, gen_raw_term,
                              gen_simply_typed, gen_wellformed)
from exsub.rewrite import (ALPHA, FULL, SIGMA, SIGMA_ALPHA, Trace, TraceStep, _rule_finder,
                           apply_rule, normalize, step)
from exsub.syntax import parse_term
from exsub.terms import App, Lam, VarRef, _with_child

RULE_SETS = {"full": FULL, "sigma": SIGMA, "sigma-alpha": SIGMA_ALPHA}


class EagerWalk:
    """Leftmost-outermost walk that rebuilds the spine up to the root after
    every contraction, so `root` is always a whole term."""

    def __init__(self, root, rule_at, unsettled=None):
        self.root = root
        self._rule_at, self._unsettled = rule_at, unsettled
        self._nodes, self._next, self._marked = [root], [], []
        self._clean = {}
        self._found = None

    @property
    def focus(self):
        return self._nodes[-1]

    def next_redex(self):
        if self._found is not None:
            return self._found
        nodes, nxt, clean = self._nodes, self._next, self._clean
        while nodes:
            node = nodes[-1]
            if len(nxt) < len(nodes):
                rule = self._rule_at(node)
                if rule is not None:
                    path = tuple(nxt)
                    self._found = path, rule
                    return self._found
                if self._unsettled is not None and self._unsettled(node):
                    self._marked.append(len(nxt))
                nxt.append(0)
            kids, i = node.CHILDREN, nxt[-1]
            while i < len(kids):
                c = getattr(node, kids[i])
                if clean.get(id(c)) is not c:
                    break
                i += 1
            if i < len(kids):
                nxt[-1] = i
                nodes.append(c)
                continue
            clean[id(node)] = node
            nodes.pop()
            nxt.pop()
            if self._marked and self._marked[-1] == len(nodes):
                self._marked.pop()
            if nxt:
                nxt[-1] += 1
        return None

    def replace(self, new):
        nodes, nxt, marked = self._nodes, self._next, self._marked
        depth = len(nxt)
        nodes[depth] = new
        for k in range(depth - 1, -1, -1):
            parent = nodes[k]
            nodes[k] = _with_child(parent, parent.CHILDREN[nxt[k]], nodes[k + 1])
        self.root = nodes[0]
        resume = max(depth - 2, 0)
        if marked and marked[0] < resume:
            resume = marked[0]
        del nodes[resume + 1:], nxt[resume:]
        while marked and marked[-1] >= resume:
            marked.pop()
        self._found = None
        return self.root


def eager_normalize(t, rules, fuel):
    memo = {}
    unsettled = None
    if ALPHA in rules:
        def unsettled(u):
            return isinstance(u, Lam) and _fv(u, memo) is None
    walk = EagerWalk(t, _rule_finder(rules, memo), unsettled)
    steps = []
    for _ in range(fuel):
        picked = walk.next_redex()
        if picked is None:
            return walk.root, Trace(t, tuple(steps)), False
        path, rule = picked
        new, fresh = apply_rule(walk.focus, (), rule, _memo=memo)
        steps.append(TraceStep(rule, path, fresh, walk.replace(new)))
    return walk.root, Trace(t, tuple(steps)), walk.next_redex() is not None


def named_inputs(seed):
    rng, cfg = Random(seed), GenConfig(seed=seed, size=20)
    for _ in range(60):
        yield gen_wellformed(cfg, rng)[1]
        yield gen_simply_typed(rng, cfg)
        yield gen_raw_term(rng, rng.randint(2, 20))


@pytest.mark.parametrize("fuel", [300, 7])
@pytest.mark.parametrize("name", sorted(RULE_SETS))
def test_lazy_walk_matches_the_eager_walk(name, fuel):
    # At fuel 7 many walks stop mid-term, so the normal form returned is
    # the root read while frames above the last redex are still stale.
    rules = RULE_SETS[name]
    for t in named_inputs(seed=fuel):
        nf, trace, exhausted = normalize(t, rules, "lo", fuel)
        e_nf, e_trace, e_exhausted = eager_normalize(t, rules, fuel)
        assert (nf, exhausted) == (e_nf, e_exhausted)
        assert trace == e_trace
        assert trace.to_text() == e_trace.to_text()


@pytest.mark.parametrize("name", sorted(RULE_SETS))
def test_results_read_last_first(name):
    rules = RULE_SETS[name]
    for t in named_inputs(seed=11):
        nf, trace, _ = normalize(t, rules, "lo", 300)
        _, e_trace, _ = eager_normalize(t, rules, 300)
        if trace.steps:
            assert trace.steps[-1].result == nf == e_trace.steps[-1].result
        assert [s.result for s in reversed(trace.steps)] == \
            [s.result for s in reversed(e_trace.steps)]


@pytest.mark.parametrize("name", sorted(RULE_SETS))
def test_step_matches_the_eager_walk(name):
    rules = RULE_SETS[name]
    for t in named_inputs(seed=5):
        got = step(t, rules)
        _, e_trace, _ = eager_normalize(t, rules, 1)
        if not e_trace.steps:
            assert got is None
            continue
        s = e_trace.steps[0]
        assert got == (s.result, s.rule, s.at, s.fresh)


def test_pinned_unsettled_binder():
    t = parse_term(r"{w y} * W w * \w. y")
    nf, trace, exhausted = normalize(t, SIGMA_ALPHA)
    assert (nf, trace, exhausted) == eager_normalize(t, SIGMA_ALPHA, 10000)
    assert [s.rule for s in trace.steps][4:6] == ["W", "Alpha"]


def test_db_normalize_upsilon_matches_the_eager_walk():
    rules = SYSTEM_RULES[UPSILON]
    rng = Random(4)
    for _ in range(200):
        for a in (gen_db(rng, rng.randint(0, 2), rng.randint(2, 20)),
                  gen_db_marked(rng, rng.randint(2, 20))):
            walk = EagerWalk(a, lambda n: next(_node_rules(n, rules), None))
            while (picked := walk.next_redex()) is not None:
                walk.replace(db_apply(walk.focus, (), picked[1]))
            assert db_normalize_upsilon(a) == walk.root


def numeral(n):
    body = VarRef("x")
    for _ in range(n):
        body = App(VarRef("f"), body)
    return Lam("f", Lam("x", body))


def mult(k):
    m = Lam("m", Lam("n", Lam("f", App(VarRef("m"), App(VarRef("n"), VarRef("f"))))))
    return App(App(m, numeral(k)), numeral(k))


@pytest.mark.parametrize("k", [4, 20])
def test_rebuilds_per_step_do_not_grow_with_depth(monkeypatch, k):
    # Rebuilding up to the root made 6.6 one-level rebuilds per step at
    # k = 4 and 29.7 at k = 20.
    calls = 0

    def counting(node, field, new):
        nonlocal calls
        calls += 1
        return _with_child(node, field, new)

    monkeypatch.setattr(terms, "_with_child", counting)
    nf, trace, exhausted = normalize(mult(k), FULL)
    monkeypatch.undo()
    assert not exhausted and len(trace.steps) > 0
    assert calls <= 3 * len(trace.steps)
    if k == 4:
        assert (nf, trace) == eager_normalize(mult(k), FULL, 10000)[:2]


def test_long_trace_resolves_without_recursion():
    omega = App(Lam("x", App(VarRef("x"), VarRef("x"))),
                Lam("x", App(VarRef("x"), VarRef("x"))))
    nf, trace, exhausted = normalize(omega, FULL, "lo", 5000)
    assert exhausted and len(trace.steps) == 5000
    last = trace.steps[-1].result           # read before any other step
    _, e_trace, _ = eager_normalize(omega, FULL, 5000)
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

r"""Leftmost-outermost reduction that resumes next to the last contraction
must pick the same redexes as a rescan from the root.

The oracles are the simple engines of `conftest`: take the first redex
that the full scan lists, contract it with `apply_rule` (or `db_apply`),
repeat.
"""

from __future__ import annotations

from random import Random

import pytest

from exsub import rewrite
from exsub.debruijn import (DApp, DComp, DSlash, FreeName, One, db_find_redexes,
                            db_normalize_upsilon)
from exsub.freevars import fv
from exsub.generators import gen_db, gen_db_marked, gen_raw_subst, gen_raw_term
from exsub.rewrite import (_REACH, _SHAPE_RULE, FULL, RULE_SETS, SIGMA, SIGMA_ALPHA, _rule_finder,
                           _shape, apply_rule, find_redexes, normalize)
from exsub.syntax import parse_term
from exsub.terms import (App, Comp, Lam, LeftmostOutermost, Lift, Rename, Slash, VarRef, Weak,
                         path_indices, replace_at)

from conftest import mult, named_inputs, oracle_db_normalize, oracle_normalize


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
    finder = _rule_finder(SIGMA_ALPHA)
    lo = LeftmostOutermost(parse_term(PINNED), lambda u: finder(u) or None)
    rows = []
    while len(rows) < 6 and (picked := lo.next_redex()) is not None:
        path, rule = picked
        lo.replace(apply_rule(lo.focus, (), rule)[0])
        rows.append((rule, path_indices(path)))
    assert rows[4] == ("W", [0, 1, 1])
    assert rows[5] == ("IdVar", [0, 1])


# Each pin makes a redex above its first contraction: the term, the rule
# set, the first two steps, and the class whose reach the walk needs to
# find the second (None: the contractum has no children, so the walk
# resumes at its parent whatever the parent reaches).
RESUME_PINS = [
    # Var at the function 1.0 leaves an abstraction there, which makes the
    # application at 1 a Beta redex
    (r"w (([\x. x/y] * y) z)", FULL, [("Var", [1, 0]), ("Beta", [1])], App),
    # IdShift at 1.1 leaves W x * a there, the body of the composition at
    # 1, whose Shift rules read the body's W x: it becomes a Shift redex
    (r"w ([b/x] * {x y} * W y * a)", SIGMA, [("IdShift", [1, 1]), ("Shift", [1])], Comp),
    # Var at 1.1 leaves the variable x, a leaf, which makes the composition
    # at 1 a Var redex
    (r"w ([a/x] * [x/y] * y)", SIGMA, [("Var", [1, 1]), ("Var", [1])], None),
]


def walk_rows(t, rules, reach):
    """The (rule, path) of each step of a lo walk with the given reach.
    The walk asks no node without children for a rule."""
    finder = _rule_finder(rules)

    def rule_at(u):
        assert u.CHILDREN, u
        return finder(u)

    lo = LeftmostOutermost(t, rule_at, reach)
    rows = []
    while (picked := lo.next_redex()) is not None:
        path, rule = picked
        lo.replace(apply_rule(lo.focus, (), rule)[0])
        rows.append((rule, path_indices(path)))
    return rows


@pytest.mark.parametrize("src, rules, rows, cls", RESUME_PINS)
def test_resume_pins_match_the_oracle_and_need_their_reach(src, rules, rows, cls):
    t = parse_term(src)
    trace, _ = assert_matches_the_oracle(t, rules, 10000)
    expected = [(s.rule, path_indices(s.at)) for s in trace.steps]
    assert expected[:2] == rows
    short = dict.fromkeys(_REACH, 0)
    assert walk_rows(t, rules, _REACH) == expected
    if cls is None:
        assert walk_rows(t, rules, short) == expected
    else:
        assert walk_rows(t, rules, short)[:2] != rows
        assert walk_rows(t, rules, {**short, cls: _REACH[cls]}) == expected


NAMED_CLASSES = (VarRef, App, Lam, Comp, Slash, Weak, Rename, Lift)
SUBSTS = (Slash, Weak, Rename, Lift)
TERM_POOL = [parse_term(u) for u in ("x", "y", r"\x. x", "x y", "W x * y", "[y/x] * x",
                                     r"(\x. x) y", r"{y x} * W x * z")]


def below(t):
    """(path, node) for every node of `t` but its root, in pre-order."""
    out, stack = [], [((i,), getattr(t, f)) for i, f in enumerate(t.CHILDREN)]
    while stack:
        p, u = stack.pop()
        out.append((p, u))
        stack.extend((p + (i,), getattr(u, f)) for i, f in enumerate(u.CHILDREN))
    return out


def test_a_step_below_a_class_reach_leaves_its_rule():
    # the walk asks a frame again only within its class's reach: replacing
    # any term deeper than that leaves the rule at the root, and each reach
    # is tight, as a term at that depth can change the rule.  Only terms
    # are replaced: no rule has its root at a substitution, so that is
    # where every contraction lands.
    assert set(_REACH) == {c for c in NAMED_CLASSES if c.CHILDREN}
    rng, changed = Random(27), set()
    for _ in range(800):
        size = rng.randint(2, 14)
        t = gen_raw_subst(rng, size) if rng.random() < 0.2 else gen_raw_term(rng, size)
        rule, reach = _SHAPE_RULE.get(_shape(t)), _REACH.get(type(t), 0)
        for path, u in below(t):
            if isinstance(u, SUBSTS):
                continue
            for v in TERM_POOL:
                got = _SHAPE_RULE.get(_shape(replace_at(t, path, v)))
                if len(path) > reach:
                    assert got == rule, (t, path, v)
                elif len(path) == reach and got != rule:
                    changed.add(type(t))
    assert changed == {c for c, r in _REACH.items() if r}


def test_the_root_binder_is_asked_once(monkeypatch):
    # the steps below \x. leave its context defined and without x, which
    # a step only shrinks, so the walk does not ask the binder again
    probed = []

    def counted_fv(t):
        if type(t) is Lam:
            probed.append(t)
        return fv(t)

    t = parse_term(r"[y/z] * \x. x z")
    monkeypatch.setattr(rewrite, "fv", counted_fv)
    _, trace, _ = normalize(t, SIGMA_ALPHA)
    assert len(probed) == 1
    monkeypatch.undo()
    assert [s.at[:1] for s in trace.steps] == [()] + [(0,)] * 5
    assert_matches_the_oracle(t, SIGMA_ALPHA, 10000)


@pytest.mark.parametrize("k", [4, 8, 12])
def test_rule_lookups_per_church_step(k, monkeypatch):
    lookups = [0]
    finder = rewrite._rule_finder

    def counting_finder(rules):
        rule_at = finder(rules)

        def counted(u):
            lookups[0] += 1
            return rule_at(u)
        return counted

    monkeypatch.setattr(rewrite, "_rule_finder", counting_finder)
    _, trace, exhausted = normalize(mult(k), FULL, "lo", 10**5)
    assert not exhausted
    assert lookups[0] <= 2.5 * len(trace.steps)


def test_replace_needs_a_found_redex():
    lo = LeftmostOutermost(parse_term("x"), lambda u: None)
    assert lo.next_redex() is None
    with pytest.raises(ValueError):
        lo.replace(parse_term("y"))


def test_a_found_redex_is_kept_until_it_is_replaced():
    lo = LeftmostOutermost(parse_term("x ([y/z] * z)"), _rule_finder(SIGMA))
    first = lo.next_redex()
    assert first == ((1,), "Var") and lo.next_redex() is first


def test_the_walk_stays_ended_and_keeps_the_normal_form():
    t = parse_term(r"\w. x ([y/z] * z)")
    lo = LeftmostOutermost(t, _rule_finder(SIGMA))
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

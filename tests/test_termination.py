"""Termination instruments: weight pairs, labelling, and the path order.

Beyond the goldens, every rule of each system is exercised on generated
instances and its certificate checked: the weight pair must drop
lexicographically on substitution steps (first component strict except on
ShiftLift), and labelled marked-system steps must descend in the path
order.
"""

from __future__ import annotations

from random import Random

import pytest

from exsub.debruijn import (UPSILON, UPSILON2, DApp, DBoldLam, DComp, DId,
                            DLam, DLift, DShift, DSlash, FreeName, One,
                            db_apply, db_find_redexes)
from exsub.generators import gen_db, gen_db_marked
from exsub.termination import _lpo_gt, _prec_gt, label, lpo_gt, weight, weights12

x, y = FreeName("x"), FreeName("y")


def test_weights12_goldens():
    assert weights12(One()) == (2, 2)
    assert weights12(DComp(DShift(), One())) == (4, 4)
    assert weights12(DLift(DShift())) == (2, 4)
    assert weights12(DApp(One(), One())) == (5, 5)
    assert weights12(DSlash(One())) == (2, 2)


def test_weights12_reject_marked_binders():
    with pytest.raises(TypeError):
        weights12(DBoldLam(One()))


def test_weight_goldens():
    assert weight(One()) == 0
    assert weight(DLam(One())) == 1
    assert weight(DComp(DSlash(DLam(One())), One())) == 1
    assert weight(DBoldLam(One())) == 1
    assert weight(DApp(DLam(One()), One())) == 1
    assert weight(DComp(DLift(DSlash(DLam(One()))), One())) == 1


def test_label_goldens():
    t = DBoldLam(DComp(DShift(), x))
    shift, name_x = (("shift",), ()), (("name", "x"), ())
    assert label(t) == (("mark", 1), ((("comp", 0), (shift, name_x)),))
    assert label(One()) == (("one",), ())
    flat = DComp(DSlash(DComp(DShift(), x)), DComp(DShift(), DComp(DShift(), y)))
    lab = label(flat)
    sub, body = lab[1]
    assert lab[0] == ("comp", 0)
    assert sub[1][0][0] == ("comp", 0)
    assert body[0] == ("comp", 0) and body[1][1][0] == ("comp", 0)


def test_lpo_alpha_instances():
    for body in (x, DComp(DShift(), x), DLam(One())):
        a = label(DBoldLam(body))
        b = label(DLam(DComp(DId(), body)))
        assert lpo_gt(a, b)


def test_lpo_irreflexive():
    for t in (label(One()), label(DBoldLam(x)), label(DComp(DShift(), x))):
        assert not lpo_gt(t, t)


def test_lpo_liftshift_instance():
    s = DSlash(DLam(One()))  # weight 1, so the labels differ along the rule
    a = DComp(DLift(s), DComp(DShift(), DLam(DLam(One()))))
    b = db_apply(a, (), "ShiftLift")
    assert lpo_gt(label(a), label(b))


def test_lpo_orients_one_instance_of_every_marked_rule():
    rng = Random(41)
    needed = {"App", "Lambda", "LambdaP", "LambdaPP", "LambdaPPP", "Var",
              "Shift", "VarId", "ShiftId", "VarLift", "ShiftLift", "Alpha", "Xi"}
    seen = set()
    tries = 0
    while needed - seen and tries < 4000:
        tries += 1
        a = gen_db_marked(rng, rng.randint(2, 14))
        for path, rule in db_find_redexes(a, UPSILON2):
            b = db_apply(a, path, rule)
            assert lpo_gt(label(a), label(b)), f"{rule} not oriented"
            seen.add(rule)
    assert needed <= seen, f"never generated: {needed - seen}"


def test_weight_pair_decreases_on_every_substitution_rule():
    rng = Random(42)
    needed = {"App", "Lambda", "Var", "Shift", "VarId", "ShiftId", "VarLift",
              "ShiftLift"}
    seen = set()
    tries = 0
    while needed - seen and tries < 4000:
        tries += 1
        n = rng.randint(0, 2)
        a = gen_db(rng, n, rng.randint(2, 16))
        for path, rule in db_find_redexes(a, UPSILON):
            b = db_apply(a, path, rule)
            wa, wb = weights12(a), weights12(b)
            if rule == "ShiftLift":
                assert wa[0] >= wb[0] and wa > wb, rule
            else:
                assert wa[0] > wb[0], rule
            seen.add(rule)
    assert needed <= seen, f"never generated: {needed - seen}"


def test_shiftlift_keeps_first_weight():
    a = DComp(DLift(DShift()), DComp(DShift(), One()))
    b = db_apply(a, (), "ShiftLift")
    assert weights12(a)[0] == weights12(b)[0]
    assert weights12(a)[1] > weights12(b)[1]


def test_lpo_incomparable_symbols_need_subterm_evidence():
    # slash and application are unrelated in the precedence; comparisons
    # only succeed through argument positions
    a = label(DSlash(DApp(x, y)))
    b = label(DApp(x, y))
    assert lpo_gt(a, b)      # argument of the slash equals b
    assert not lpo_gt(b, a)  # nothing in b reaches the slash
    # an abstraction and id: unrelated heads and no argument of either
    # that reaches the other
    a, b = label(DLam(One())), label(DId())
    assert not lpo_gt(a, b) and not lpo_gt(b, a)


def test_precedence_is_the_closure_of_its_generating_pairs():
    # the generating pairs of the module docstring at labels 0-5, closed by
    # brute force, against every symbol `label` makes
    labels = range(6)
    gt = {(("lift",), ("shift",)), (("mark", 0), ("lam",))}
    for i in labels:
        gt |= {(("comp", i), (g,)) for g in ("app", "lam", "lift", "id")}
        gt |= {(("comp", i), ("mark", i)), (("mark", i), ("id",))}
        if i + 1 in labels:
            gt.add((("mark", i + 1), ("comp", i)))
    while more := {(f, h) for f, g in gt for g2, h in gt if g == g2} - gt:
        gt |= more
    symbols = [("name", "x"), ("one",), ("app",), ("lam",), ("slash",), ("shift",),
               ("id",), ("lift",)] + [(s, i) for i in labels for s in ("comp", "mark")]
    assert {(f, g) for f in symbols for g in symbols if _prec_gt(f, g)} == gt


class CountingMemo(dict):
    """A memo that counts its misses: each miss stores one entry."""
    misses = 0

    def __setitem__(self, key, value):
        self.misses += 1
        super().__setitem__(key, value)


def labelled_size(n) -> int:
    return 1 + sum(labelled_size(c) for c in n[1])


def test_one_comparison_misses_its_memo_at_most_size_a_times_size_b_times():
    rng = Random(3)
    compared = 0
    for size in (10, 40, 200):
        for _ in range(30):
            a = gen_db_marked(rng, rng.randint(2, size))
            la = label(a)
            for p, r in db_find_redexes(a, UPSILON2)[:5]:
                lb = label(db_apply(a, p, r))
                memo = CountingMemo()
                assert _lpo_gt(la, lb, memo) is lpo_gt(la, lb) is True
                assert memo.misses == len(memo) <= labelled_size(la) * labelled_size(lb)
                compared += 1
    assert compared > 200

"""The one-pass upsilon normalizer against the leftmost-outermost walk.

`upsilon_nf` pushes each normal substitution through its normal body in
one bottom-up pass; `db_normalize_upsilon` contracts one redex at a time
through the rule table.  On well-formed terms the normal form is unique,
so they must agree there, at any depth.  Off that domain the rules are
not confluent, and the smallest term where the two differ is pinned.
"""

from __future__ import annotations

from random import Random

import pytest

import exsub.checks as checks
import exsub.suites as suites
from exsub.debruijn import (_DB_CONTRACT, DApp, DComp, DId, DLam, DLift, DShift,
                            DSlash, FreeName, One, db_check, db_normalize_upsilon,
                            print_db, upsilon_nf)
from exsub.generators import GenConfig, gen_db, gen_db_sub

from conftest import shifted_binders

z = FreeName("z")


def well_formed_terms(seed: int, count: int):
    """(arity, term) pairs well-formed at arity 0-3: half plain terms, half
    a substitution composed over a term of its output arity."""
    rng = Random(seed)
    for _ in range(count):
        n = rng.randint(0, 3)
        if rng.random() < 0.5:
            yield n, gen_db(rng, n, rng.randint(1, 40))
        else:
            s, m = gen_db_sub(rng, n, rng.randint(1, 12))
            yield n, DComp(s, gen_db(rng, m, rng.randint(1, 30)))


def test_agrees_with_the_walk_on_well_formed_terms():
    compared = 0
    for n, a in well_formed_terms(0, 10_000):
        assert db_check(n, a)
        assert upsilon_nf(a) == db_normalize_upsilon(a), print_db(a)
        compared += 1
    assert compared == 10_000


@pytest.mark.parametrize("sub", [DId(), DLift(DSlash(FreeName("y")))], ids=["id", "lifted"])
def test_agrees_with_the_walk_on_a_chain_nested_10_4_deep(sub):
    # compared as printed: the printer does not recurse, and `==` here would
    # recurse until it fell back to its loop (see test_values)
    n = 10**4
    a = DComp(sub, shifted_binders(n))
    nf = print_db(upsilon_nf(a))
    assert nf == print_db(db_normalize_upsilon(a))
    # every substitution is absorbed at the index: the chain comes back
    assert nf == "\\" * n + "1" + "[^]" * (n - 1)


def test_the_smallest_point_where_the_two_normal_forms_differ():
    # (\z)[^][id] is ill-formed: the free name sits under a binder.  The walk
    # fires ShiftId at the root first; the pass normalizes the body first,
    # so the identity meets a lifted shift that no rule takes away.
    a = DComp(DId(), DComp(DShift(), DLam(z)))
    assert print_db(a) == "(\\z)[^][id]"
    assert not any(db_check(n, a) for n in range(4))
    assert print_db(upsilon_nf(a)) == "\\z[^^^][^^id]"
    assert print_db(db_normalize_upsilon(a)) == "\\z[^^^]"


def test_rule_goldens():
    y = FreeName("y")
    s = DSlash(y)
    assert upsilon_nf(DComp(s, One())) == y                                   # Var
    assert upsilon_nf(DComp(DId(), One())) == One()                           # VarId
    assert upsilon_nf(DComp(DLift(s), One())) == One()                        # VarLift
    assert upsilon_nf(DComp(s, DComp(DShift(), z))) == z                      # Shift
    shifted = DComp(DShift(), One())
    assert upsilon_nf(DComp(DId(), shifted)) == shifted                       # ShiftId
    assert upsilon_nf(DComp(DLift(s), shifted)) == DComp(DShift(), y)         # ShiftLift
    assert upsilon_nf(DComp(s, DApp(One(), One()))) == DApp(y, y)             # App
    assert upsilon_nf(DComp(s, DLam(DApp(One(), DComp(DShift(), One()))))) == \
        DLam(DApp(One(), DComp(DShift(), y)))                                 # Lambda
    assert upsilon_nf(DComp(DShift(), shifted)) == DComp(DShift(), shifted)   # stuck


def test_every_join_lemma_verdict_is_the_walks(monkeypatch):
    # the report counts only failures, so equal reports would not show a
    # verdict that changed on a passing pair; compare every verdict
    verdicts = []

    def both(a, b):
        verdicts.append((upsilon_nf(a) == upsilon_nf(b),
                         db_normalize_upsilon(a) == db_normalize_upsilon(b)))
        return verdicts[-1][0]

    monkeypatch.setattr(checks, "_joinable", both)
    report = suites.run_suite("join-lemmas", GenConfig(seed=0, count=1000))
    assert len(verdicts) > 5000
    assert all(one_pass == walk for one_pass, walk in verdicts)
    assert report.passes == 1000


def _shiftlift_without_its_shift(a):
    return DComp(a.sub.sub, a.body.body)


def test_a_shiftlift_that_drops_its_shift_still_fails_join_lemmas(monkeypatch):
    # The one-pass normal forms do not read the rule table, so under this
    # mutant only the one-step reducts, which do, stop rejoining: 10 failed
    # trials of 1000 at seed 0 (308 when both sides went through the walk).
    monkeypatch.setitem(_DB_CONTRACT, "ShiftLift", _shiftlift_without_its_shift)
    report = suites.run_suite("join-lemmas", GenConfig(seed=0, count=120))
    assert [f.trial for f in report.failures] == [36, 63, 101]
    assert {f.detail for f in report.failures} == {"one-step reducts do not rejoin"}


def test_the_differential_check_kills_the_same_mutant(monkeypatch):
    monkeypatch.setitem(_DB_CONTRACT, "ShiftLift", _shiftlift_without_its_shift)
    assert any(upsilon_nf(a) != db_normalize_upsilon(a)
               for _, a in well_formed_terms(0, 200))

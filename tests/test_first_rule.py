"""The de Bruijn rules at a node come from one shape table.  No rule of
either calculus matches at a node without children, and the lo walk never
enters such a node nor asks it for a rule.

The reference below is the match the table replaced, kept here as it was.
"""

from __future__ import annotations

from random import Random

import pytest

from exsub.debruijn import (DB_ALPHA, DB_APP, DB_BETA, DB_LAMBDA, DB_LAMBDAP,
                            DB_LAMBDAPP, DB_LAMBDAPPP, DB_SHIFT, DB_SHIFTID,
                            DB_SHIFTLIFT, DB_VAR, DB_VARID, DB_VARLIFT, DB_XI,
                            LAMBDA_UPSILON, SYSTEM_RULES, UPSILON, UPSILON2, DApp,
                            DBoldLam, DBSub, DBTerm, DComp, DId, DLam, DLift, DShift,
                            DSlash, FreeName, One, _node_rules)
from exsub.generators import gen_db, gen_db_marked, gen_raw_term
from exsub.rewrite import RULE_SETS, SIGMA_ALPHA, _rule_finder, apply_rule
from exsub.terms import App, LeftmostOutermost, Rename, Subst, Term, VarRef, Weak

from conftest import all_nodes


def ref_node_rules(a, rules):
    match a:
        case DApp(DLam(_), _):
            if DB_BETA in rules:
                yield DB_BETA
        case DBoldLam(_):
            if DB_ALPHA in rules:
                yield DB_ALPHA
            if DB_XI in rules:
                yield DB_XI
        case DComp(s, b):
            match b:
                case DApp(_, _):
                    if DB_APP in rules:
                        yield DB_APP
                case DLam(_):
                    if DB_LAMBDA in rules:
                        yield DB_LAMBDA
                    if DB_LAMBDAP in rules:
                        yield DB_LAMBDAP
                case DBoldLam(_):
                    if DB_LAMBDAPP in rules:
                        yield DB_LAMBDAPP
                    if DB_LAMBDAPPP in rules:
                        yield DB_LAMBDAPPP
                case One():
                    r = {DSlash: DB_VAR, DId: DB_VARID, DLift: DB_VARLIFT}.get(type(s))
                    if r is not None and r in rules:
                        yield r
                case DComp(DShift(), _):
                    r = {DSlash: DB_SHIFT, DId: DB_SHIFTID,
                         DLift: DB_SHIFTLIFT}.get(type(s))
                    if r is not None and r in rules:
                        yield r


def db_terms() -> list:
    rng = Random(31)
    terms = [gen_db(rng, rng.randint(0, 2), rng.randint(1, 20)) for _ in range(500)]
    terms += [gen_db_marked(rng, rng.randint(1, 20)) for _ in range(500)]
    return terms


@pytest.mark.parametrize("system", [UPSILON, LAMBDA_UPSILON, UPSILON2])
def test_first_rule_matches_the_reference_match(system):
    rules = SYSTEM_RULES[system]
    fired = set()
    for a in db_terms():
        for n in all_nodes(a):
            expected = list(ref_node_rules(n, rules))
            assert list(_node_rules(n, rules)) == expected
            fired.update(expected)
    # the generated terms reach every rule of the system
    assert fired == rules


def test_walk_does_not_enter_leaves():
    # `rule_at` is asked of every node the walk enters, so it sees no leaf
    # when the root is not one
    rng = Random(12)
    for _ in range(300):
        memo: dict = {}
        ruled = []
        finder = _rule_finder(SIGMA_ALPHA, memo)

        def rule_at(u):
            ruled.append(u)
            return finder(u)

        t = App(VarRef("q"), gen_raw_term(rng, rng.randint(1, 18)))
        lo = LeftmostOutermost(t, rule_at)
        for _ in range(50):
            picked = lo.next_redex()
            if picked is None:
                break
            lo.replace(apply_rule(lo.focus, (), picked[1], _memo=memo)[0])
        assert ruled and all(u.CHILDREN for u in ruled)


def leaves(classes) -> set:
    return {c for c in classes if not c.CHILDREN}


@pytest.mark.parametrize("name", sorted(RULE_SETS))
def test_no_named_rule_matches_at_a_leaf(name):
    # what the walk relies on when it passes a leaf without asking it
    assert leaves(Term.__args__ + Subst.__args__) == {VarRef, Weak, Rename}
    rule_at = _rule_finder(RULE_SETS[name], {})
    rng = Random(13)
    found = [u for _ in range(200) for u in all_nodes(gen_raw_term(rng, rng.randint(1, 18)))
             if not u.CHILDREN]
    found += [VarRef("x"), Weak("x"), Rename("y", "x"), Rename("x", "x")]
    assert leaves(map(type, found)) == {VarRef, Weak, Rename}
    assert all(rule_at(u) is None for u in found)


@pytest.mark.parametrize("system", [UPSILON, LAMBDA_UPSILON, UPSILON2])
def test_no_db_rule_matches_at_a_leaf(system):
    assert leaves(DBTerm.__args__ + DBSub.__args__) == {FreeName, One, DShift, DId}
    rules = SYSTEM_RULES[system]
    found = [u for a in db_terms() for u in all_nodes(a) if not u.CHILDREN]
    found += [FreeName("f"), One(), DShift(), DId()]
    assert leaves(map(type, found)) == {FreeName, One, DShift, DId}
    assert all(not list(_node_rules(u, rules)) for u in found)

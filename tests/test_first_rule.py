"""The de Bruijn rules at a node come from one shape table, and the lo walk
settles leaves without entering them.

The reference below is the match the table replaced, kept here as it was.
"""

from __future__ import annotations

from random import Random

import pytest

from exsub.debruijn import (DB_ALPHA, DB_APP, DB_BETA, DB_LAMBDA, DB_LAMBDAP,
                            DB_LAMBDAPP, DB_LAMBDAPPP, DB_SHIFT, DB_SHIFTID,
                            DB_SHIFTLIFT, DB_VAR, DB_VARID, DB_VARLIFT, DB_XI,
                            LAMBDA_UPSILON, SYSTEM_RULES, UPSILON, UPSILON2, DApp,
                            DBoldLam, DComp, DId, DLam, DLift, DShift, DSlash, One,
                            _node_rules)
from exsub.freevars import _fv
from exsub.generators import gen_db, gen_db_marked, gen_raw_term
from exsub.rewrite import SIGMA_ALPHA, _rule_finder, apply_rule
from exsub.terms import App, Lam, LeftmostOutermost, VarRef


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


def all_nodes(a) -> list:
    out, stack = [], [a]
    while stack:
        u = stack.pop()
        out.append(u)
        stack.extend(getattr(u, f) for f in u.CHILDREN)
    return out


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
    # `unsettled` is asked of every node the walk enters without a rule, so
    # it sees no leaf when the root is not one
    rng = Random(12)
    for _ in range(300):
        memo: dict = {}
        asked = []

        def unsettled(u):
            asked.append(u)
            return isinstance(u, Lam) and _fv(u, memo) is None

        t = App(VarRef("q"), gen_raw_term(rng, rng.randint(1, 18)))
        lo = LeftmostOutermost(t, _rule_finder(SIGMA_ALPHA, memo), unsettled)
        for _ in range(50):
            picked = lo.next_redex()
            if picked is None:
                break
            lo.replace(apply_rule(lo.focus, (), picked[1], _memo=memo)[0])
        assert asked and all(u.CHILDREN for u in asked)

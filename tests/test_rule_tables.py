"""Both calculi find and contract their redexes through tables: the named
rule at a node comes from one lookup of its shape, and each rule's
contraction from a table keyed by rule, in `exsub.rewrite` and in
`exsub.debruijn` alike.

The references below are the `match` statements the tables replaced, kept
here as they were.  At every node of generated terms, the rule found under
each rule set and, for every rule, the outcome of contracting there (the
contractum, Alpha's fresh name, or the exception and its message) must be
the same as theirs.

The lo walk under a rule set with Alpha asks for a binder's context once
each time it enters the binder: the rule lookup asks, and answers
`UNSETTLED` for a binder whose context is undefined, and Alpha's
contraction reads the memo entry it wrote.
"""

from __future__ import annotations

from collections import Counter
from random import Random

import pytest

from exsub import rewrite
from exsub.debruijn import (SYSTEM_RULES, DApp, DBoldLam, DComp, DId, DLam, DLift,
                            DShift, DSlash, One, _db_contract, print_db)
from exsub.freevars import _fv
from exsub.generators import GenConfig, gen_db, gen_db_marked, gen_raw_term, gen_wellformed
from exsub.rewrite import (ALL_RULES, ALPHA, APP, BETA, FULL, IDSHIFT, IDSHIFTP, IDVAR,
                           LAMBDA, LIFTSHIFT, LIFTSHIFTP, LIFTVAR, SHIFT, SHIFTP, SIGMA,
                           SIGMA_ALPHA, VAR, W, _contract, _rule_finder, find_redexes,
                           fresh_var, normalize)
from exsub.syntax import parse_term, print_term
from exsub.terms import (UNSETTLED, App, Comp, InvalidRedex, Lam, LeftmostOutermost, Lift,
                         Rename, Slash, VarRef, Weak)

from conftest import all_nodes


def ref_sigma_rule(s, b) -> str | None:
    match b:
        case App(_, _):
            return APP
        case Lam(_, _):
            return LAMBDA
        case VarRef(z):
            match s:
                case Slash(_, x):
                    return VAR if x == z else SHIFTP
                case Rename(_, x):
                    return IDVAR if x == z else IDSHIFTP
                case Lift(_, x):
                    return LIFTVAR if x == z else LIFTSHIFTP
                case Weak(x):
                    return W if x != z else None
        case Comp(Weak(w), _):
            match s:
                case Slash(_, x) if x == w:
                    return SHIFT
                case Rename(_, x) if x == w:
                    return IDSHIFT
                case Lift(_, x) if x == w:
                    return LIFTSHIFT
    return None


def ref_root_rule(t, rules, memo) -> str | None:
    match t:
        case App(Lam(_, _), _) if BETA in rules:
            return BETA
        case Lam(x, _) if ALPHA in rules:
            c = _fv(t, memo)
            if c is None:
                return UNSETTLED
            return ALPHA if x in c else None
        case Comp(s, b):
            r = ref_sigma_rule(s, b)
            return r if r in rules else None
    return None


def ref_contract(t, rule, memo):
    match rule, t:
        case "Beta", App(Lam(x, a), b):
            return Comp(Slash(b, x), a), None
        case "App", Comp(s, App(a, b)):
            return App(Comp(s, a), Comp(s, b)), None
        case "Lambda", Comp(s, Lam(x, a)):
            return Lam(x, Comp(Lift(s, x), a)), None
        case "Var", Comp(Slash(b, x), VarRef(z)) if x == z:
            return b, None
        case "Shift", Comp(Slash(_, x), Comp(Weak(w), a)) if x == w:
            return a, None
        case "ShiftP", Comp(Slash(_, x), VarRef(z)) if x != z:
            return VarRef(z), None
        case "IdVar", Comp(Rename(y, x), VarRef(z)) if x == z:
            return VarRef(y), None
        case "IdShift", Comp(Rename(y, x), Comp(Weak(w), a)) if x == w:
            return Comp(Weak(y), a), None
        case "IdShiftP", Comp(Rename(y, x), VarRef(z)) if x != z:
            return Comp(Weak(y), VarRef(z)), None
        case "LiftVar", Comp(Lift(_, x), VarRef(z)) if x == z:
            return VarRef(x), None
        case "LiftShift", Comp(Lift(s, x), Comp(Weak(w), a)) if x == w:
            return Comp(Weak(x), Comp(s, a)), None
        case "LiftShiftP", Comp(Lift(s, x), VarRef(z)) if x != z:
            return Comp(Weak(x), Comp(s, VarRef(z))), None
        case "W", Comp(Weak(x), VarRef(z)) if x != z:
            return VarRef(z), None
        case "Alpha", Lam(x, a):
            c = _fv(t, memo)
            if c is None or x not in c:
                raise InvalidRedex(f"Alpha does not apply: {x} is not free in the binder")
            y = fresh_var(c, x)
            return Lam(y, Comp(Rename(y, x), a)), y
    raise InvalidRedex(f"rule {rule} does not match {print_term(t)}")


def ref_db_contract(a, rule):
    match rule, a:
        case "Beta", DApp(DLam(b), arg):
            return DComp(DSlash(arg), b)
        case "App", DComp(s, DApp(f, b)):
            return DApp(DComp(s, f), DComp(s, b))
        case "Lambda", DComp(s, DLam(b)):
            return DLam(DComp(DLift(s), b))
        case "LambdaP", DComp(s, DLam(b)):
            return DBoldLam(DComp(DLift(s), b))
        case "LambdaPP", DComp(s, DBoldLam(b)):
            return DLam(DComp(DLift(s), b))
        case "LambdaPPP", DComp(s, DBoldLam(b)):
            return DBoldLam(DComp(DLift(s), b))
        case "Var", DComp(DSlash(b), One()):
            return b
        case "Shift", DComp(DSlash(_), DComp(DShift(), b)):
            return b
        case "VarId", DComp(DId(), One()):
            return One()
        case "ShiftId", DComp(DId(), DComp(DShift(), b)):
            return DComp(DShift(), b)
        case "VarLift", DComp(DLift(_), One()):
            return One()
        case "ShiftLift", DComp(DLift(s), DComp(DShift(), b)):
            return DComp(DShift(), DComp(s, b))
        case "Alpha", DBoldLam(b):
            return DLam(DComp(DId(), b))
        case "Xi", DBoldLam(b):
            return DLam(b)
    raise InvalidRedex(f"rule {rule} does not match {print_db(a)}")


def outcome(fn, *args) -> tuple:
    """("ok", result) or the exception's class and message."""
    try:
        return "ok", fn(*args)
    except Exception as e:  # noqa: BLE001 - the class is part of the outcome
        return type(e).__name__, str(e)


def named_terms() -> list:
    rng = Random(41)
    cfg = GenConfig(seed=41, size=14)
    terms = [gen_raw_term(rng, rng.randint(1, 14)) for _ in range(1000)]
    terms += [gen_wellformed(cfg, rng)[1] for _ in range(1000)]
    return terms


def db_terms() -> list:
    rng = Random(43)
    terms = [gen_db(rng, rng.randint(0, 2), rng.randint(1, 14)) for _ in range(500)]
    terms += [gen_db_marked(rng, rng.randint(1, 14)) for _ in range(500)]
    return terms


# a name no rule has: both sides report that it does not match
NAMED_RULES = ALL_RULES + ("Nope",)
DB_RULES = tuple(sorted(frozenset().union(*SYSTEM_RULES.values()))) + ("Nope",)


def test_named_rule_lookup_matches_the_reference():
    found = {name: set() for name in ("full", "sigma", "sigma-alpha")}
    for t in named_terms():
        memo, ref_memo = {}, {}
        rule_at = {rules: _rule_finder(rules, memo) for rules in (FULL, SIGMA, SIGMA_ALPHA)}
        for u in all_nodes(t):
            for name, rules in (("full", FULL), ("sigma", SIGMA), ("sigma-alpha", SIGMA_ALPHA)):
                r = rule_at[rules](u)
                assert r == ref_root_rule(u, rules, ref_memo), (name, u)
                found[name].add(r)
    # every rule of each set is found somewhere, and a binder whose context
    # is undefined under each set with Alpha
    assert UNSETTLED in found["full"] and UNSETTLED in found["sigma-alpha"]
    assert found["full"] - {None, UNSETTLED} == FULL
    assert found["sigma"] - {None} == SIGMA
    assert found["sigma-alpha"] - {None, UNSETTLED} == SIGMA_ALPHA


def test_named_contraction_matches_the_reference():
    fired = set()
    for t in named_terms():
        memo, ref_memo = {}, {}
        for u in all_nodes(t):
            for rule in NAMED_RULES:
                got = outcome(_contract, u, rule, memo)
                assert got == outcome(ref_contract, u, rule, ref_memo), (rule, u)
                if got[0] == "ok":
                    fired.add(rule)
    assert fired == set(ALL_RULES)


@pytest.mark.parametrize("message, term, rule", [
    ("Alpha does not apply: x is not free in the binder", Lam("x", VarRef("y")), ALPHA),
    ("rule Beta does not match x", VarRef("x"), BETA),
    ("rule Shift does not match [a/x] * W y * z",
     Comp(Slash(VarRef("a"), "x"), Comp(Weak("y"), VarRef("z"))), SHIFT),
])
def test_named_mismatch_messages(message, term, rule):
    with pytest.raises(InvalidRedex) as e:
        _contract(term, rule, {})
    assert str(e.value) == message


def test_db_contraction_matches_the_reference():
    fired = set()
    for a in db_terms():
        for u in all_nodes(a):
            for rule in DB_RULES:
                got = outcome(_db_contract, u, rule)
                assert got == outcome(ref_db_contract, u, rule), (rule, u)
                if got[0] == "ok":
                    fired.add(rule)
    assert fired == set(DB_RULES) - {"Nope"}


def test_one_fv_probe_per_binder_entry(monkeypatch):
    # `alive` holds every node counted, so that no id is reused
    entered, probed, alive = Counter(), Counter(), []

    class CountingWalk(LeftmostOutermost):
        # the walk calls `rule_at` on a binder only when it enters it
        def __init__(self, root, rule_at, reach=None):
            def counted(u):
                if type(u) is Lam:
                    entered[id(u)] += 1
                    alive.append(u)
                return rule_at(u)
            super().__init__(root, counted, reach)

    def counted_fv(t, memo):
        probed[id(t)] += 1
        alive.append(t)
        return _fv(t, memo)

    monkeypatch.setattr(rewrite, "LeftmostOutermost", CountingWalk)
    monkeypatch.setattr(rewrite, "_fv", counted_fv)
    rng = Random(47)
    cfg = GenConfig(seed=47, size=20)
    terms = [parse_term(r"{w y} * W w * \w. y")]
    terms += [gen_wellformed(cfg, rng)[1] for _ in range(300)]
    terms += [gen_raw_term(rng, rng.randint(1, 20)) for _ in range(300)]
    alphas = 0
    for t in terms:
        _, trace, _ = rewrite.normalize(t, SIGMA_ALPHA, fuel=300)
        alphas += sum(s.rule == ALPHA for s in trace.steps)
    assert alphas and sum(entered.values()) > 1000
    assert set(probed) <= set(entered)
    assert all(n <= entered[k] for k, n in probed.items())


def test_an_edit_of_the_shape_table_takes_effect_at_once(monkeypatch):
    # a rule set already used keeps no copy of the table, so a mutant that
    # patches it is seen by the next lookup
    normalize(parse_term(r"(\x. x) ([y/x] * x)"), FULL)
    t = parse_term("[y/x] * x")
    assert find_redexes(t, FULL) == [((), VAR)]
    monkeypatch.delitem(rewrite._SHAPE_RULE, (Slash, VarRef, True))
    assert find_redexes(t, FULL) == []
    assert find_redexes(t, SIGMA) == []

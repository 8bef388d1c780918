r"""The reduction engine: redex enumeration, golden chains, invariants.

The worked reduction chains are encoded two ways: the strategy-driven
normalizer must reproduce the final terms exactly (deterministic fresh
names included), and the hand-ordered chains are replayed rule by rule,
each step checked against its printed result.
"""

from __future__ import annotations

from random import Random

import pytest

from exsub import rewrite
from exsub.cli import main
from exsub.contexts import context, ctx_le
from exsub.freevars import fv
from exsub.generators import GenConfig, gen_wellformed
from exsub.judgements import derive
from exsub.rewrite import (ALL_RULES, FULL, SIGMA, SIGMA_ALPHA, InvalidRedex,
                           apply_rule, find_redexes, fresh_var, normalize,
                           step)
from exsub.syntax import parse_term, print_term

from conftest import MULT, church

C = context


def replay(term, chain):
    """Apply the given rules in order, locating each redex by its rule
    name (which must be unambiguous), checking every intermediate term."""
    t = parse_term(term)
    for rule, expected in chain:
        candidates = [(p, r) for p, r in find_redexes(t, FULL) if r == rule]
        assert len(candidates) == 1, f"{rule} matches {len(candidates)} redexes in {print_term(t)}"
        t, _ = apply_rule(t, candidates[0][0], rule)
        assert print_term(t) == expected, f"after {rule}"
    return t


def test_find_redexes_beta_only():
    assert find_redexes(parse_term(r"(\x.x) y"), FULL) == [((), "Beta")]


def test_find_redexes_alpha_on_weakened_binder():
    t = parse_term(r"\y. W y * y")
    assert find_redexes(t, SIGMA_ALPHA) == [((), "Alpha")]
    # without Alpha the term is in normal form
    assert find_redexes(t, SIGMA) == []


def test_find_redexes_lifted_slash():
    assert find_redexes(parse_term("[y/x]^y * x"), SIGMA) == [((), "LiftShiftP")]


def test_find_redexes_order_is_outside_in_left_to_right():
    t = parse_term(r"([y/x] * x) ([z/x] * x)")
    assert [p for p, _ in find_redexes(t, FULL)] == [(0,), (1,)]


def test_apply_rule_goldens():
    t, fresh = apply_rule(parse_term(r"(\x.\y.x) y"), (), "Beta")
    assert print_term(t) == r"[y/x] * \y. x" and fresh is None
    t, _ = apply_rule(parse_term("{z y} * W y * y"), (), "IdShift")
    assert print_term(t) == "W z * y"
    t, fresh = apply_rule(parse_term(r"\y. W y * y"), (), "Alpha")
    assert print_term(t) == r"\z. {z y} * W y * y" and fresh == "z"


def test_apply_rule_rejects_bad_shape():
    with pytest.raises(InvalidRedex):
        apply_rule(parse_term("x y"), (), "Beta")
    with pytest.raises(InvalidRedex):
        apply_rule(parse_term(r"\x. x"), (), "Alpha")  # x not free in \x.x


def test_fresh_var_policy():
    assert fresh_var(C({"y"}, []), "y") == "z"
    assert fresh_var(C({"z", "y"}, []), "y") == "x"
    assert fresh_var(C((), []), "z") == "y"
    crowded = C({"z", "y", "x", "w", "v", "u", "t", "s", "a1"}, [])
    assert fresh_var(crowded, "z") == "a2"


def test_step_single():
    r = step(parse_term(r"(\x.x) y"), FULL, "lo")
    assert r is not None and print_term(r[0]) == "[y/x] * x"


def test_step_none_on_normal_form():
    assert step(parse_term(r"\y. z"), SIGMA_ALPHA, "lo") is None


def test_step_strategies_pick_different_redexes():
    t = parse_term(r"([y/x] * x) ([z/x] * x)")
    lo = step(t, FULL, "lo")
    ri = step(t, FULL, "ri")
    k1 = step(t, FULL, 1)
    assert print_term(lo[0]) == "y ([z/x] * x)"
    assert print_term(ri[0]) == "([y/x] * x) z"
    assert print_term(k1[0]) == print_term(ri[0])
    assert step(t, FULL, 5) is None


def test_golden_identity_application():
    nf, trace, exhausted = normalize(parse_term(r"(\x.x) y"), FULL)
    assert print_term(nf) == "y" and not exhausted
    assert [s.rule for s in trace.steps] == ["Beta", "Var"]


def test_golden_const_applied_to_fresh_name():
    nf, trace, exhausted = normalize(parse_term(r"(\x.\y.x) z"), FULL)
    assert print_term(nf) == r"\y. z" and not exhausted
    assert [s.rule for s in trace.steps] == ["Beta", "Lambda", "LiftShiftP", "Var", "W"]


def test_golden_const_applied_to_captured_name():
    nf, trace, exhausted = normalize(parse_term(r"(\x.\y.x) y"), FULL)
    assert print_term(nf) == r"\z. y" and not exhausted
    rules = [s.rule for s in trace.steps]
    assert len(rules) == 7 and rules.count("Alpha") == 1
    assert sorted(rules) == sorted(
        ["Beta", "Lambda", "LiftShiftP", "Var", "Alpha", "IdShift", "W"])
    (alpha_step,) = [s for s in trace.steps if s.rule == "Alpha"]
    assert alpha_step.fresh == "z"


def test_golden_s_combinator_applied_to_k():
    nf, _, exhausted = normalize(parse_term(r"(\x.\y.\z. x z (y z)) (\x.\y.x)"), FULL)
    assert print_term(nf) == r"\y. \z. z" and not exhausted


def test_replayed_chain_rename_then_weaken():
    replay(r"(\x.\y.x) y", [
        ("Beta", r"[y/x] * \y. x"),
        ("Lambda", r"\y. [y/x]^y * x"),
        ("LiftShiftP", r"\y. W y * [y/x] * x"),
        ("Var", r"\y. W y * y"),
        ("Alpha", r"\z. {z y} * W y * y"),
        ("IdShift", r"\z. W z * y"),
        ("W", r"\z. y"),
    ])


def test_replayed_chain_lifted_const_at_used_name():
    # hand-ordered chain for [\x.\y.x / x]^y^z * (x z); the weakening
    # elimination in the middle is a full propagation normalization
    t = replay(r"[\x.\y.x / x]^y^z * (x z)", [
        ("App", r"([\x. \y. x/x]^y^z * x) ([\x. \y. x/x]^y^z * z)"),
        ("LiftVar", r"([\x. \y. x/x]^y^z * x) z"),
    ])
    t = replay(print_term(t), [
        ("LiftShiftP", r"(W z * [\x. \y. x/x]^y * x) z"),
        ("LiftShiftP", r"(W z * W y * [\x. \y. x/x] * x) z"),
        ("Var", r"(W z * W y * \x. \y. x) z"),
    ])
    left, _, exhausted = normalize(t.fn, SIGMA)
    assert print_term(left) == r"\x. \y. x" and not exhausted
    replay(r"(\x. \y. x) z", [
        ("Beta", r"[z/x] * \y. x"),
        ("Lambda", r"\y. [z/x]^y * x"),
        ("LiftShiftP", r"\y. W y * [z/x] * x"),
        ("Var", r"\y. W y * z"),
        ("W", r"\y. z"),
    ])


def test_replayed_chain_lifted_const_at_unused_name():
    replay(r"[\x.\y.x / x]^y^z * (y z)", [
        ("App", r"([\x. \y. x/x]^y^z * y) ([\x. \y. x/x]^y^z * z)"),
        ("LiftVar", r"([\x. \y. x/x]^y^z * y) z"),
        ("LiftShiftP", r"(W z * [\x. \y. x/x]^y * y) z"),
        ("LiftVar", r"(W z * y) z"),
        ("W", "y z"),
    ])


def test_normalize_lo_alpha_equivalent_on_hand_ordered_examples():
    from exsub.debruijn import equiv_alpha
    nf, _, _ = normalize(parse_term(r"[\x.\y.x / x]^y^z * (x z)"), FULL)
    assert equiv_alpha(nf, parse_term(r"\y. z"))
    nf, _, _ = normalize(parse_term(r"[\x.\y.x / x]^y^z * (y z)"), FULL)
    assert print_term(nf) == "y z"


def test_normalize_sigma_alpha_of_weakened_binder():
    nf, trace, exhausted = normalize(parse_term(r"\y. W y * y"), SIGMA_ALPHA)
    assert print_term(nf) == r"\z. y" and not exhausted
    assert [s.rule for s in trace.steps] == ["Alpha", "IdShift", "W"]


def test_no_alpha_loops():
    # Alpha renames to a name outside the free variables, so it never fires
    # twice in a row at one position, and normalization always ends
    rng = Random(21)
    cfg = GenConfig(seed=21, size=30)
    for _ in range(200):
        _, t = gen_wellformed(cfg, rng)
        _, trace, exhausted = normalize(t, SIGMA_ALPHA, "lo", 10000)
        assert not exhausted
        for prev, cur in zip(trace.steps, trace.steps[1:]):
            assert not (prev.rule == "Alpha" and cur.rule == "Alpha"
                        and prev.at == cur.at)


def test_subject_reduction_every_rule_spot_checks():
    rng = Random(22)
    cfg = GenConfig(seed=22, size=30)
    seen = set()
    for _ in range(800):
        ctx, t = gen_wellformed(cfg, rng)
        for path, rule in find_redexes(t, FULL):
            t2, _ = apply_rule(t, path, rule)
            derive(ctx, t2)  # must not raise
            before, after = fv(t), fv(t2)
            assert before is not None and after is not None
            assert ctx_le(after, before)
            seen.add(rule)
    assert len(seen) == len(ALL_RULES), f"rules never exercised: {set(ALL_RULES) - seen}"


def test_reducts_of_good_terms_are_good():
    from exsub.judgements import is_good
    rng = Random(23)
    cfg = GenConfig(seed=23, size=30)
    checked = 0
    for _ in range(400):
        ctx, t = gen_wellformed(cfg, rng)
        if not ctx.is_set:
            continue
        for path, rule in find_redexes(t, FULL)[:4]:
            t2, _ = apply_rule(t, path, rule)
            assert is_good(t2), f"{rule} broke goodness of {print_term(t)}"
            checked += 1
    assert checked > 100


def test_alpha_side_condition_requires_membership():
    # plain binders admit no Alpha step; weakened ones do
    assert not find_redexes(parse_term(r"\x. x"), SIGMA_ALPHA)
    assert not find_redexes(parse_term(r"\x. y"), SIGMA_ALPHA)
    t = parse_term(r"\x. W x * W x * x")
    redexes = find_redexes(t, SIGMA_ALPHA)
    assert ((), "Alpha") in redexes


def test_trace_serialization_fields():
    _, trace, _ = normalize(parse_term(r"(\x.\y.x) y"), FULL)
    doc = trace.to_json()
    assert doc["initial"] == r"(\x. \y. x) y"
    for entry in doc["steps"]:
        assert set(entry) == {"ruleName", "pathAsChildIndices",
                              "freshVariableOrNull", "printedTerm"}
    alpha = [e for e in doc["steps"] if e["ruleName"] == "Alpha"]
    assert alpha and alpha[0]["freshVariableOrNull"] == "z"
    text = trace.to_text()
    assert len(text.splitlines()) == len(doc["steps"]) + 1


def test_normalize_rejects_nonpositive_fuel():
    with pytest.raises(ValueError):
        normalize(parse_term("x"), FULL, "lo", 0)


# bool is a subclass of int, but True is not index:1 nor False index:0
@pytest.mark.parametrize("strategy", [-1, -2, "rl", "index:0", True, False])
def test_an_unknown_strategy_is_rejected_not_read_as_a_normal_form(strategy):
    # (\x. x) y has a redex: a negative index must not read as a normal form
    t = parse_term(r"(\x. x) y")
    with pytest.raises(ValueError, match="unknown strategy"):
        normalize(t, FULL, strategy)
    with pytest.raises(ValueError, match="unknown strategy"):
        step(t, FULL, strategy)
    assert normalize(t, FULL, 0)[1].steps and step(t, FULL, 0) is not None


@pytest.mark.parametrize("strategy", ["lo", "ri"])
def test_running_out_of_fuel_contracts_no_extra_redex(monkeypatch, capsys, strategy):
    # the exhaustion check only asks whether a redex is left; every
    # contraction, on any call path, goes through an entry of the table
    calls = []

    def counting(contract):
        def counted(*args):
            calls.append(args)
            return contract(*args)
        return counted

    for rule, contract in list(rewrite._CONTRACT.items()):
        monkeypatch.setitem(rewrite._CONTRACT, rule, counting(contract))
    assert main(["reduce", f"{MULT} {church(3)} {church(3)}", "--strategy", strategy,
                 "--steps", "40"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 41   # initial + 40 steps
    assert len(calls) == 40

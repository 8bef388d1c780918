"""The judgement engine: goldens, uniqueness, and the metatheory of the
order (weakening the context preserves derivability; the free-variable
context is the least witness; subterms of derivable terms are derivable)."""

from __future__ import annotations

from random import Random

import pytest

from exsub.contexts import context, ctx_le
from exsub.freevars import fv
from exsub.generators import GenConfig, gen_wellformed
from exsub.judgements import (Derivation, IllFormed, NotDerivable, derive, derive_subst,
                              format_derivation, is_good, well_formed)
from exsub.syntax import parse_context, parse_term
from exsub.terms import Comp, Lam, Lift, Slash, VarRef, subterm_at

from conftest import assert_valid_derivation, grow_context

C = context


def spine_rules(d):
    rules = []
    while True:
        rules.append(d.rule)
        if not d.premises:
            return rules
        d = d.premises[-1]


def test_derive_shadowed_binder():
    d = derive(C((), ()), parse_term(r"\x.\x.x"))
    assert spine_rules(d) == ["R5", "R5", "R2"]
    assert_valid_derivation(d)


def test_derive_weakened_binder():
    d = derive(C({"x"}, ()), parse_term(r"\x. W x * x"))
    assert [d.rule, d.premises[0].rule, d.premises[0].premises[0].rule,
            d.premises[0].premises[1].rule] == ["R5", "R6", "R8", "R1"]
    assert_valid_derivation(d)


def test_derive_mismatched_weakening_fails():
    with pytest.raises(NotDerivable):
        derive(C((), ()), parse_term(r"\x. W y * x"))


def test_derive_variable_strips_locals():
    d = derive(C({"x"}, ["y", "z"]), parse_term("x"))
    assert spine_rules(d) == ["R3", "R3", "R1"]
    assert_valid_derivation(d)


def test_derive_subst_weakening():
    _, out = derive_subst(C({"x"}, ["x"]), parse_term("W x * x").sub)
    assert out == C({"x"}, [])


def test_derive_subst_rename():
    _, out = derive_subst(C((), ["y"]), parse_term("{y x} * x").sub)
    assert out == C((), ["x"])


def test_derive_subst_lift_needs_local_tail():
    s = Lift(Lift(Slash(parse_term(r"\x.\y.x"), "x"), "y"), "z")
    with pytest.raises(NotDerivable):
        derive_subst(C((), ()), s)
    _, out = derive_subst(C((), ["y", "z"]), s)
    assert out == C((), ["x", "y", "z"])


def test_not_derivable_reports_path():
    t = parse_term(r"\x. (x (W y * z))")
    try:
        derive(C((), ()), t)
        raise AssertionError("expected failure")
    except NotDerivable as e:
        node = subterm_at(t, e.path[:2])
        assert e.path[:2] == (0, 1)
        assert isinstance(node, Comp)


def test_well_formed_goldens():
    assert well_formed(parse_term(r"\x. W x * x")) == C({"x"}, [])
    assert well_formed(parse_term("x")) == C({"x"}, [])
    with pytest.raises(IllFormed):
        well_formed(parse_term("(W x * a) (W y * b)"))


def test_is_good_goldens():
    assert is_good(parse_term(r"\x.\y. W y * W x * z"))
    assert not is_good(parse_term("W x * a"))
    assert is_good(parse_term("x y"))
    assert is_good(parse_term(r"\x. W x * x"))
    # no context admits it, since its free variables are undefined
    assert not is_good(parse_term("(W x * a) (W y * b)"))


def test_derivations_are_deterministic_and_valid():
    rng = Random(3)
    cfg = GenConfig(seed=3, size=30)
    for _ in range(300):
        ctx, t = gen_wellformed(cfg, rng)
        d1 = derive(ctx, t)
        d2 = derive(ctx, t)
        assert d1 == d2
        assert_valid_derivation(d1)


def test_derivability_is_monotone_in_the_context():
    rng = Random(4)
    cfg = GenConfig(seed=4, size=30)
    for _ in range(400):
        ctx, t = gen_wellformed(cfg, rng)
        above = grow_context(rng, ctx)
        derive(above, t)  # must not raise


def test_subterms_of_derivable_terms_are_derivable():
    rng = Random(8)
    cfg = GenConfig(seed=8, size=25)
    for _ in range(200):
        _, t = gen_wellformed(cfg, rng)
        stack = [t]
        while stack:
            u = stack.pop()
            match u:
                case Lam(_, b):
                    stack.append(b)
                case Comp(s, b):
                    stack.append(b)
                    while isinstance(s, Lift):
                        s = s.sub
                    if isinstance(s, Slash):
                        stack.append(s.term)
                case _ if hasattr(u, "fn"):
                    stack.extend((u.fn, u.arg))
            if not isinstance(u, (Lift, Slash)):
                well_formed(u)  # must not raise


def test_least_context_property():
    rng = Random(12)
    cfg = GenConfig(seed=12, size=30)
    for _ in range(400):
        ctx, t = gen_wellformed(cfg, rng)
        c = fv(t)
        assert c is not None
        derive(c, t)
        assert ctx_le(c, ctx)


def test_variable_derivable_iff_member_exhaustive():
    names = ("x", "y")
    ctxs = [C(g, l) for g in ([], ["x"], ["y"], ["x", "y"])
            for l in ([], ["x"], ["y"], ["x", "x"], ["y", "x"])]
    for ctx in ctxs:
        for v in names:
            t = parse_term(v)
            try:
                derive(ctx, t)
                derivable = True
            except NotDerivable:
                derivable = False
            assert derivable == (v in ctx)


def test_format_derivation_shape():
    d = derive(parse_context("{x}"), parse_term(r"\x. W x * x"))
    text = format_derivation(d)
    assert text.splitlines()[0].startswith("R5")
    assert "|>" in text  # substitution judgement appears with its output


def test_format_derivation_of_a_deep_chain():
    # 3000 R3 steps strip a local y each, deeper than the recursion limit
    x, ctx = VarRef("x"), context({"x"})
    d = Derivation("R1", ctx, x, None, ())
    for _ in range(3000):
        ctx = ctx.push("y")
        d = Derivation("R3", ctx, x, None, (d,))
    lines = format_derivation(d).splitlines()
    assert len(lines) == 3001
    assert lines[0] == "R3  {x}; " + ",".join(["y"] * 3000) + " |- x"
    assert lines[-1] == "  " * 3000 + "R1  {x} |- x"

"""Free variables: goldens, classical agreement, distribution law."""

from __future__ import annotations

from random import Random

from exsub.contexts import context, ctx_sup
from exsub.freevars import fv, fv_blame
from exsub.generators import GenConfig, gen_raw_term, gen_simply_typed, gen_subst
from exsub.judgements import NotDerivable, derive
from exsub.pure import is_pure, pure_free_vars
from exsub.syntax import parse_term
from exsub.terms import App, Comp

C = context


def test_fv_goldens():
    assert fv(parse_term(r"\x. x y")) == C({"y"}, [])
    assert fv(parse_term(r"\x. W x * x")) == C({"x"}, [])
    assert fv(parse_term(r"\y. W y * y")) == C({"y"}, [])
    assert fv(parse_term(r"\x. W y * z")) is None


def test_fv_variable_and_weakening():
    assert fv(parse_term("x")) == C({"x"}, [])
    assert fv(parse_term("W x * z")) == C({"z"}, ["x"])


def test_fv_rewriting_equations():
    # the slash, renaming, and lift cases agree with their unfoldings
    assert fv(parse_term("[y/x] * x")) == fv(parse_term(r"(\x.x) y"))
    assert fv(parse_term("{y x} * x")) == fv(parse_term(r"W y * \x.x"))
    assert fv(parse_term("[z/x]^y * x")) == fv(parse_term(r"W y * [z/x] * \y.x"))


def test_fv_blame_points_at_failure():
    t = parse_term(r"\x. W y * z")
    assert fv(t) is None
    assert fv_blame(t) is not None
    assert fv_blame(parse_term("x y")) is None


def test_fv_incompatible_application_undefined():
    # (W x * a)(W y * b) forces incompatible weakenings
    assert fv(parse_term("(W x * a) (W y * b)")) is None
    assert fv(parse_term("(W x * a) (W x * b)")) == C({"a", "b"}, ["x"])


def test_pure_terms_get_classical_free_variable_sets():
    rng = Random(11)
    cfg = GenConfig(seed=11, size=25)
    for _ in range(300):
        t = gen_simply_typed(rng, cfg)
        assert is_pure(t)
        c = fv(t)
        assert c is not None and c.is_set
        assert c.globals == pure_free_vars(t)


def test_subcup_distribution_on_constructed_compositions():
    # fv(S * (A B)) = fv(S * A) | | fv(S * B) whenever the left side exists
    rng = Random(5)
    from exsub.generators import gen_context, gen_term
    hits = 0
    for _ in range(500):
        ctx = gen_context(rng)
        s, delta = gen_subst(rng, ctx, rng.randint(1, 6))
        a = gen_term(rng, delta, rng.randint(1, 8))
        b = gen_term(rng, delta, rng.randint(1, 8))
        whole = Comp(s, App(a, b))
        lhs = fv(whole)
        if lhs is None:
            continue
        hits += 1
        left, right = fv(Comp(s, a)), fv(Comp(s, b))
        assert left is not None and right is not None
        assert lhs == ctx_sup(left, right)
    assert hits > 300


def test_subcup_on_raw_terms():
    rng = Random(6)
    from exsub.generators import gen_raw_subst
    for _ in range(2000):
        s = gen_raw_subst(rng, rng.randint(1, 6))
        a = gen_raw_term(rng, rng.randint(1, 8))
        b = gen_raw_term(rng, rng.randint(1, 8))
        lhs = fv(Comp(s, App(a, b)))
        if lhs is None:
            continue
        left, right = fv(Comp(s, a)), fv(Comp(s, b))
        assert left is not None and right is not None
        assert lhs == ctx_sup(left, right)


def test_fv_callable_on_ill_formed_terms():
    # fv is syntactic; a defined result need not admit the term
    rng = Random(9)
    defined = underivable = 0
    for _ in range(2000):
        t = gen_raw_term(rng, rng.randint(1, 15))
        c = fv(t)
        if c is None:
            continue
        defined += 1
        try:
            derive(c, t)
        except NotDerivable:
            underivable += 1
    assert defined > 500
    # every observed fv-defined term was also derivable; record that the
    # converse direction of well-formedness has produced no counterexample
    assert underivable == 0

"""The classical oracle: capture-avoiding beta reduction and congruence."""

from __future__ import annotations

from exsub.pure import alpha_eq, classical_normalize, is_pure, pure_free_vars, substitute
from exsub.syntax import parse_term, print_term
from exsub.terms import Comp, Lam, VarRef, Weak


def test_identity_application():
    nf, exhausted = classical_normalize(parse_term(r"(\x.x) y"))
    assert print_term(nf) == "y" and not exhausted


def test_const_application_renames_captured_binder():
    nf, _ = classical_normalize(parse_term(r"(\x.\y.x) y"))
    assert isinstance(nf, Lam)
    assert nf.var != "y" and nf.body == VarRef("y")
    assert alpha_eq(nf, parse_term(r"\z. y"))


def test_s_combinator_applied_to_k():
    nf, exhausted = classical_normalize(parse_term(r"(\x.\y.\z. x z (y z)) (\x.\y.x)"))
    assert alpha_eq(nf, parse_term(r"\y.\z. z")) and not exhausted


def test_substitute_avoids_capture():
    t = parse_term(r"\y. x y")
    out = substitute(t, "x", parse_term("y"))
    assert isinstance(out, Lam) and out.var != "y"
    assert pure_free_vars(out) == {"y"}


def test_substitute_ignores_bound_occurrences():
    t = parse_term(r"\x. x")
    assert substitute(t, "x", parse_term("z")) == t


def test_exhaustion_flag():
    omega = parse_term(r"(\x. x x) (\x. x x)")
    _, exhausted = classical_normalize(omega, fuel=50)
    assert exhausted


def test_alpha_eq():
    assert alpha_eq(parse_term(r"\x. x"), parse_term(r"\y. y"))
    assert not alpha_eq(parse_term(r"\x. x"), parse_term(r"\x. y"))
    assert alpha_eq(parse_term(r"\x.\y. x z"), parse_term(r"\a.\b. a z"))
    assert not alpha_eq(parse_term(r"\x.\y. x"), parse_term(r"\x.\y. y"))
    assert not alpha_eq(parse_term("x"), parse_term("y"))


def test_is_pure():
    assert is_pure(parse_term(r"\x. x y"))
    assert not is_pure(parse_term("W x * y"))


def test_is_pure_answers_10_to_the_4_binders_deep():
    for bottom, pure in ((VarRef("x"), True), (Comp(Weak("x"), VarRef("y")), False)):
        t = bottom
        for _ in range(10**4):
            t = Lam("x", t)
        try:
            got = is_pure(t)
        except RecursionError:
            # pytest's report of a traceback this deep compares the locals
            # of every frame, each holding a deep term, which takes minutes
            got = "RecursionError"
        assert got is pure

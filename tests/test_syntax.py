"""Parser and printer: golden parses, error positions, round trips."""

from __future__ import annotations

from random import Random

import pytest
from hypothesis import given, settings

from exsub.generators import gen_raw_term
from exsub.syntax import ParseError, parse_context, parse_term, print_term
from exsub.terms import App, Comp, Lam, Lift, Rename, Slash, VarRef, Weak

from conftest import raw_terms


def test_parse_application_of_lambda():
    assert parse_term(r"(\x.x) y") == App(Lam("x", VarRef("x")), VarRef("y"))


def test_parse_slash_composition():
    assert parse_term("[y/x] * x") == Comp(Slash(VarRef("y"), "x"), VarRef("x"))


def test_parse_weakening():
    assert parse_term("W x * z") == Comp(Weak("x"), VarRef("z"))


def test_parse_lifted_slash():
    assert parse_term("[z/x]^y * x") == Comp(Lift(Slash(VarRef("z"), "x"), "y"),
                                             VarRef("x"))


def test_parse_rename_and_nested_lifts():
    assert parse_term("{y x} * x") == Comp(Rename("y", "x"), VarRef("x"))
    assert parse_term("[z/x]^y^w * x") == Comp(
        Lift(Lift(Slash(VarRef("z"), "x"), "y"), "w"), VarRef("x"))


def test_application_is_left_associative():
    assert parse_term("x y z") == App(App(VarRef("x"), VarRef("y")), VarRef("z"))


def test_composition_is_right_associative_and_loose():
    t = parse_term("W x * W y * a b")
    assert t == Comp(Weak("x"), Comp(Weak("y"), App(VarRef("a"), VarRef("b"))))


def test_lambda_body_extends_right():
    assert parse_term(r"\x. W x * x") == Lam("x", Comp(Weak("x"), VarRef("x")))


def test_unicode_input_accepted():
    assert parse_term("λx. x") == parse_term(r"\x. x")
    assert parse_term("[y/x] ∘ x") == parse_term("[y/x] * x")


def test_slash_body_may_be_lambda():
    t = parse_term(r"[\x.\y.x / x]^y * x")
    assert t == Comp(Lift(Slash(Lam("x", Lam("y", VarRef("x"))), "x"), "y"),
                     VarRef("x"))


@pytest.mark.parametrize("bad", [
    "", "x (", "(x", "x)", "\\x x", "[x/x x", "{x} * x", "x * y",
    "W * x", "\\W. x", "X", "[x/x]", "x [y/x] * z",
])
def test_parse_errors_carry_positions(bad):
    with pytest.raises(ParseError) as e:
        parse_term(bad)
    assert e.value.pos >= 0


def test_print_golden_weakened_binder():
    t = Lam("y", Comp(Weak("y"), VarRef("y")))
    assert print_term(t) == r"\y. W y * y"


def test_print_golden_application():
    assert print_term(App(VarRef("x"), VarRef("y"))) == "x y"


def test_print_minimal_parens():
    assert print_term(parse_term("x (y z)")) == "x (y z)"
    assert print_term(parse_term("(x y) z")) == "x y z"
    assert print_term(parse_term(r"(\x.x) y")) == r"(\x. x) y"
    assert print_term(parse_term("(W x * a) (W y * b)")) == "(W x * a) (W y * b)"


def test_canonical_strings_are_stable():
    # printing a parsed canonical string reproduces it byte for byte
    for s in (r"\y. W y * y", "x y z", "[y/x]^y * x", "{z y} * W y * y",
              r"(\x. x) y", r"\x. \y. W y * W x * W z * z"):
        assert print_term(parse_term(s)) == s


DEEP = 10 ** 4


@pytest.mark.parametrize("text, printed", [
    ("(" * DEEP + "x" + ")" * DEEP, "x"),
    ("\\x. " * DEEP + "x", None),
    ("[" * DEEP + "x" + "/y] * y" * DEEP, None),
    ("W x * " * DEEP + "x", None),
    ("f (" * DEEP + "f x" + ")" * DEEP, None),
    ("(" * DEEP + "f" + " x)" * DEEP, "f" + " x" * DEEP),
], ids=["parentheses", "binders", "slash bodies", "compositions", "arguments", "functions"])
def test_input_nested_10k_deep_parses(text, printed):
    # compared as text, because `==` on terms recurses and the printer does not
    assert print_term(parse_term(text)) == (text if printed is None else printed)


def test_roundtrip_seeded_10k():
    rng = Random(20240901)
    for _ in range(10_000):
        t = gen_raw_term(rng, rng.randint(1, 30))
        assert parse_term(print_term(t)) == t


@settings(max_examples=300, derandomize=True)
@given(raw_terms)
def test_roundtrip_hypothesis(t):
    assert parse_term(print_term(t)) == t


def test_parse_context_golden():
    c = parse_context("{x,z}; x,x,y")
    assert c.globals == frozenset({"x", "z"})
    assert c.locals == ("x", "x", "y")


def test_parse_context_empty_forms():
    assert parse_context("{}").globals == frozenset()
    assert parse_context("{}").locals == ()
    c = parse_context("{x};")
    assert c.globals == frozenset({"x"}) and c.locals == ()


@pytest.mark.parametrize("bad", ["", "x", "{x", "{x}; x,", "{x,}", "{x} y"])
def test_parse_context_errors(bad):
    with pytest.raises(ParseError):
        parse_context(bad)

r"""The de Bruijn printer: `print_db` against the recursive definition of
both notations, terms deeper than the recursion limit, and malformed trees.

The four recursive printers below are the definition `print_db` replaced:
`bracket` writes ``a[s]``, `compose` writes ``s * a``.  `print_db` prints
through the iterative core of the named printer (`syntax._print`), from a
table of each class's text parts per notation, and must agree with them on
every tree.
"""

from __future__ import annotations

from random import Random

import pytest

from exsub.debruijn import (UPSILON, UPSILON2, DApp, DBoldLam, DComp, DId, DLam, DLift,
                            DShift, DSlash, FreeName, One, print_db, translate)
from exsub.generators import GenConfig, gen_db, gen_db_marked, gen_db_sub, gen_wellformed
from exsub.judgements import derive
from exsub.terms import VarRef, replace_at

COUNT = 10_000


def _bracket_atom(a) -> str:
    if isinstance(a, (FreeName, One, DComp)):
        return _print_bracket(a)
    return "(" + _print_bracket(a) + ")"


def _print_bracket(a) -> str:
    match a:
        case FreeName(x):
            return x
        case One():
            return "1"
        case DApp(f, b):
            left = _print_bracket(f) if isinstance(f, (DApp, FreeName, One, DComp)) \
                else _bracket_atom(f)
            return f"{left} {_bracket_atom(b)}"
        case DLam(b):
            return "\\" + _print_bracket(b)
        case DBoldLam(b):
            return "\\!" + _print_bracket(b)
        case DComp(s, b):
            return f"{_bracket_atom(b)}[{_print_bracket(s)}]"
        case DSlash(b):
            inner = _print_bracket(b) if isinstance(b, (FreeName, One, DComp)) \
                else "(" + _print_bracket(b) + ")"
            return inner + "/"
        case DShift():
            return "^"
        case DId():
            return "id"
        case DLift(s):
            inner = _print_bracket(s)
            if isinstance(s, (DSlash, DLift)):
                inner = "(" + inner + ")"
            return "^^" + inner
    raise TypeError(f"not a de Bruijn node: {a!r}")


def _compose_atom(a) -> str:
    if isinstance(a, (FreeName, One)):
        return _print_compose(a)
    return "(" + _print_compose(a) + ")"


def _print_compose(a) -> str:
    match a:
        case FreeName(x):
            return x
        case One():
            return "1"
        case DApp(f, b):
            left = _print_compose(f) if isinstance(f, (DApp, FreeName, One)) \
                else _compose_atom(f)
            return f"{left} {_compose_atom(b)}"
        case DLam(b):
            return "\\" + _print_compose(b)
        case DBoldLam(b):
            return "\\!" + _print_compose(b)
        case DComp(s, b):
            return f"{_print_compose(s)} * {_print_compose(b)}"
        case DSlash(b):
            return f"[{_print_compose(b)}/]"
        case DShift():
            return "W"
        case DId():
            return "id"
        case DLift(s):
            inner = _print_compose(s)
            if isinstance(s, DLift):
                inner = "(" + inner + ")"
            return "^^" + inner
    raise TypeError(f"not a de Bruijn node: {a!r}")


def assert_prints_as_defined(a) -> None:
    assert print_db(a) == print_db(a, "bracket") == _print_bracket(a)
    assert print_db(a, "compose") == _print_compose(a)


CFG = GenConfig(seed=0, size=30)

GENERATED = {
    "gen_db": lambda rng: gen_db(rng, rng.randint(0, 3), rng.randint(1, 30)),
    "gen_db_marked": lambda rng: gen_db_marked(rng, rng.randint(1, 30)),
    "gen_db_sub": lambda rng: gen_db_sub(rng, rng.randint(0, 3), rng.randint(1, 15))[0],
}


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_print_db_matches_the_recursive_printers(name):
    rng, gen = Random(0), GENERATED[name]
    for _ in range(COUNT):
        assert_prints_as_defined(gen(rng))


@pytest.mark.parametrize("flavor", [UPSILON, UPSILON2])
def test_print_db_matches_the_recursive_printers_on_translations(flavor):
    rng = Random(1)
    for _ in range(2000):
        ctx, t = gen_wellformed(CFG, rng)
        assert_prints_as_defined(translate(derive(ctx, t), flavor))


# one small tree of each de Bruijn class, and every (class, field) slot of
# a node with children
ONE_OF_EACH = (FreeName("a"), One(), DApp(One(), FreeName("b")), DLam(One()),
               DBoldLam(One()), DComp(DShift(), One()), DSlash(One()), DShift(), DId(),
               DLift(DShift()))
SLOTS = [(p, i) for p in ONE_OF_EACH for i in range(len(p.CHILDREN))]


@pytest.mark.parametrize("parent, i", SLOTS,
                         ids=[f"{type(p).__name__}.{p.CHILDREN[i]}" for p, i in SLOTS])
def test_print_db_matches_the_recursive_printers_in_every_slot(parent, i):
    # every class in every child slot, the wrong sort included (a DShift as
    # the function of a DApp), alone and as both children of an application
    assert len(ONE_OF_EACH) == 10 and len(SLOTS) == 8
    for child in ONE_OF_EACH:
        tree = replace_at(parent, (i,), child)
        assert_prints_as_defined(tree)
        assert_prints_as_defined(DApp(tree, tree))


DEPTH = 10_000      # well past the default recursion limit


@pytest.mark.parametrize("chain, bracket, compose", [
    (lambda a: DLam(a), "\\" * DEPTH + "1", "\\" * DEPTH + "1"),
    (lambda a: DComp(DShift(), a), "1" + "[^]" * DEPTH, "W * " * DEPTH + "1"),
    (lambda a: DApp(a, One()), "1" + " 1" * DEPTH, "1" + " 1" * DEPTH),
], ids=["DLam", "DComp", "left DApp"])
def test_deep_term_chains(chain, bracket, compose):
    a = One()
    for _ in range(DEPTH):
        a = chain(a)
    assert print_db(a) == bracket
    assert print_db(a, "compose") == compose


def test_deep_lift_chain():
    s = DShift()
    for _ in range(DEPTH):
        s = DLift(s)
    # each inner lift is parenthesised in both notations
    assert print_db(s) == "^^(" * (DEPTH - 1) + "^^^" + ")" * (DEPTH - 1)
    assert print_db(s, "compose") == "^^(" * (DEPTH - 1) + "^^W" + ")" * (DEPTH - 1)


@pytest.mark.parametrize("notation", ["bracket", "compose"])
@pytest.mark.parametrize("bad", ["x", None, VarRef("x")], ids=["str", "None", "named"])
@pytest.mark.parametrize("where", [
    lambda b: b,
    lambda b: DApp(One(), b),
    lambda b: DApp(b, One()),
    lambda b: DLam(DComp(DShift(), b)),
    lambda b: DComp(b, One()),
    lambda b: DComp(DSlash(b), One()),
    lambda b: DLift(DLift(b)),
], ids=["root", "argument", "function", "body", "substitution", "slash", "lift"])
def test_print_db_rejects_a_child_that_is_not_a_de_bruijn_node(where, bad, notation):
    with pytest.raises(TypeError, match="not a de Bruijn node"):
        print_db(where(bad), notation)


def test_print_db_rejects_an_unknown_notation():
    with pytest.raises(ValueError, match="unknown notation: 'infix'"):
        print_db(One(), "infix")

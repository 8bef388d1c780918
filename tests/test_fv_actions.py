r"""`fv` computes a composition by acting on the context of its body; the
paper's unfolding equations stay its specification.

The reference below is the unfolding algorithm, kept here as it was: a
slash, renaming or lift is rewritten into an equivalent term (building new
nodes) and the free variables of that term are computed instead, with a
supremum that recurses once per local variable.
"""

from __future__ import annotations

from random import Random

import pytest

from exsub.cli import main
from exsub.contexts import Context, context, ctx_sup, o_lambda
from exsub.freevars import fv, fv_blame
from exsub.generators import GenConfig, gen_raw_subst, gen_raw_term, gen_wellformed
from exsub.judgements import IllFormed, well_formed
from exsub.syntax import parse_term
from exsub.terms import App, Comp, Lam, Lift, Rename, Slash, VarRef, Weak

from conftest import all_nodes

C = context
DEEP = 10_000


def ref_sup(a: Context, b: Context) -> Context | None:
    if a.locals and b.locals:
        if a.top != b.top:
            return None
        s = ref_sup(a.pop(), b.pop())
        return None if s is None else s.push(a.top)
    if a.locals:
        s = ref_sup(a.pop(), Context(b.globals - {a.top}, ()))
        return None if s is None else s.push(a.top)
    if b.locals:
        s = ref_sup(Context(a.globals - {b.top}, ()), b.pop())
        return None if s is None else s.push(b.top)
    return Context(a.globals | b.globals, ())


def ref_unfold(t: Comp):
    match t:
        case Comp(Slash(arg, x), b):
            return App(Lam(x, b), arg)
        case Comp(Rename(y, x), b):
            return Comp(Weak(y), Lam(x, b))
        case Comp(Lift(s, x), b):
            return Comp(Weak(x), Comp(s, Lam(x, b)))
    raise TypeError(f"not a term: {t!r}")


def ref_fv(t) -> Context | None:
    match t:
        case VarRef(x):
            return Context(frozenset((x,)), ())
        case App(f, a):
            cf, ca = ref_fv(f), ref_fv(a)
            return None if cf is None or ca is None else ref_sup(cf, ca)
        case Lam(x, b):
            cb = ref_fv(b)
            return None if cb is None else o_lambda(x, cb)
        case Comp(Weak(x), b):
            cb = ref_fv(b)
            return None if cb is None else cb.push(x)
    return ref_fv(ref_unfold(t))


def test_fv_matches_the_unfolding_on_raw_terms():
    rng = Random(2024)
    undefined = 0
    for _ in range(3000):
        t = gen_raw_term(rng, rng.randint(1, 18))
        c = fv(t)
        assert c == ref_fv(t)
        undefined += c is None
    # undefined results are compared too, and they are common on raw terms
    assert 500 < undefined < 2500


def test_fv_matches_the_unfolding_on_wellformed_terms():
    rng = Random(2025)
    cfg = GenConfig(seed=2025, size=20)
    for _ in range(3000):
        _, t = gen_wellformed(cfg, rng)
        c = fv(t)
        assert c is not None and c == ref_fv(t)


def test_fv_rewriting_equations_against_the_unfolding():
    for lhs, rhs in (("[y/x] * x", r"(\x.x) y"),
                     ("{y x} * x", r"W y * \x.x"),
                     ("[z/x]^y * x", r"W y * [z/x] * \y.x")):
        t, u = parse_term(lhs), parse_term(rhs)
        assert fv(t) == ref_fv(t) == fv(u) == ref_fv(u)


def test_fv_satisfies_the_equations_on_raw_terms():
    rng = Random(7)
    for _ in range(1000):
        a = gen_raw_term(rng, rng.randint(1, 10))
        b = gen_raw_term(rng, rng.randint(1, 6))
        s = gen_raw_subst(rng, rng.randint(1, 5))
        x, y = rng.choice("abcd"), rng.choice("abcd")
        assert fv(Comp(Slash(b, x), a)) == fv(App(Lam(x, a), b))
        assert fv(Comp(Rename(y, x), a)) == fv(Comp(Weak(y), Lam(x, a)))
        assert fv(Comp(Lift(s, x), a)) == fv(Comp(Weak(x), Comp(s, Lam(x, a))))


def test_memo_holds_only_nodes_of_the_term():
    rng = Random(3)
    for _ in range(500):
        t = gen_raw_term(rng, rng.randint(1, 18))
        memo: dict = {}
        fv(t, memo=memo)
        ids = {id(u) for u in all_nodes(t)}
        for key, (node, _) in memo.items():
            assert key == id(node) and key in ids


def test_sup_matches_the_recursive_reference():
    rng = Random(4)
    names = "xyzw"
    for _ in range(3000):
        a = C(rng.sample(names, rng.randint(0, 3)), rng.choices(names, k=rng.randint(0, 3)))
        b = C(rng.sample(names, rng.randint(0, 3)), rng.choices(names, k=rng.randint(0, 3)))
        assert ctx_sup(a, b) == ref_sup(a, b)


def test_sup_of_deep_contexts():
    long = C({"b"}, ["a"] * DEEP)
    assert ctx_sup(long, long) == long
    assert ctx_sup(long, C({"a", "c"}, [])) == C({"b", "c"}, ["a"] * DEEP)
    assert ctx_sup(C({"c"}, ["a"]), long) == C({"b", "c"}, ["a"] * DEEP)
    assert ctx_sup(long, C({}, ["b"])) is None


def test_fv_of_a_deep_weakening_chain_applied_to_itself():
    c = VarRef("a")
    for _ in range(DEEP):
        c = Comp(Weak("a"), c)
    assert fv(App(c, c)) == C({"a"}, ["a"] * DEEP)


def test_fv_of_a_deep_lift_chain():
    s = Weak("w")
    for _ in range(DEEP):
        s = Lift(s, "x")
    assert fv(Comp(s, VarRef("x"))) == C({}, ["w"] + ["x"] * DEEP)


def test_fv_blame_names_a_subterm_of_the_input(capsys):
    t = parse_term("[a/x] * W y * z")
    assert fv_blame(t) is t
    with pytest.raises(IllFormed, match=r"^free variables undefined near \[a/x\] \* W y \* z$"):
        well_formed(t)
    assert main(["check", "[a/x] * W y * z"]) == 1
    assert capsys.readouterr().out.strip() == (
        "ill-formed: free variables undefined near [a/x] * W y * z")


def test_fv_blame_enters_the_slash_argument():
    arg = parse_term(r"\x. W y * z")
    t = Comp(Slash(arg, "x"), VarRef("x"))
    assert fv_blame(t) is arg


def test_fv_blame_blames_an_undefined_node_of_the_input():
    rng = Random(8)
    blamed = 0
    for _ in range(2000):
        t = gen_raw_term(rng, rng.randint(1, 18))
        b = fv_blame(t)
        if fv(t) is not None:
            assert b is None
            continue
        blamed += 1
        assert any(u is b for u in all_nodes(t))
        assert fv(b) is None
    assert blamed > 500


def test_fv_blame_on_a_deep_ill_formed_chain():
    core = Lam("x", Comp(Weak("y"), VarRef("z")))
    t = core
    for i in range(DEEP):
        t = Comp(Weak("a"), t) if i % 2 else Lam("a", t)
    assert fv(t) is None
    assert fv_blame(t) is core

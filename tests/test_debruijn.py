"""De Bruijn calculi: arity checking, rewriting, translation, equivalence."""

from __future__ import annotations

from random import Random

import pytest

from exsub import freevars
from exsub.contexts import context
from exsub.debruijn import (LAMBDA_UPSILON, UPSILON, UPSILON2, DApp, DBoldLam,
                            DComp, DId, DLam, DLift, DShift, DSlash, FreeName,
                            InvalidRedex, One, db_apply, db_check,
                            db_check_sub, db_find_redexes,
                            db_normalize_upsilon, db_one_step_reducts,
                            equiv_alpha, equiv_gamma, print_db, translate)
from exsub.generators import GenConfig, gen_db, gen_db_sub
from exsub.judgements import derive
from exsub.syntax import parse_context, parse_term
from exsub.terms import node_size

C = context
x, y, z = FreeName("x"), FreeName("y"), FreeName("z")


def test_db_check_goldens():
    assert db_check(0, DLam(DComp(DShift(), x)))
    assert not db_check(0, DLam(x))
    assert not db_check(0, DComp(DSlash(One()), x))
    assert db_check(0, DComp(DSlash(y), DComp(DShift(), x)))
    assert db_check(1, DComp(DId(), DComp(DShift(), x)))


def test_db_check_index_under_slash_needs_no_arity():
    # x[1/] admits no arity at all: the slash wants at least one binder on
    # its input side, but its output side must land back at zero for x
    t = DComp(DSlash(One()), x)
    assert not any(db_check(n, t) for n in range(6))
    shifted = DComp(DSlash(One()), DComp(DShift(), x))
    assert not any(db_check(n, shifted) for n in range(6))


def test_db_check_sub_arities():
    assert db_check_sub(0, DSlash(x)) == 1
    assert db_check_sub(2, DShift()) == 1
    assert db_check_sub(0, DShift()) is None
    assert db_check_sub(3, DId()) == 3
    assert db_check_sub(0, DId()) is None
    assert db_check_sub(1, DLift(DSlash(x))) == 2
    assert db_check_sub(1, DLift(DShift())) is None     # the shift under the lift has arity 0


def test_db_find_redexes_goldens():
    assert db_find_redexes(DComp(DSlash(y), One()), UPSILON) == [((), "Var")]
    beta = DApp(DLam(DComp(DShift(), One())), z)
    assert ((), "Beta") in db_find_redexes(beta, LAMBDA_UPSILON)
    assert ((), "Beta") not in db_find_redexes(beta, UPSILON)
    marked = DBoldLam(x)
    assert db_find_redexes(marked, UPSILON2) == [((), "Alpha"), ((), "Xi")]


def test_db_apply_goldens():
    t = DLam(DComp(DLift(DSlash(z)), DComp(DShift(), One())))
    assert db_normalize_upsilon(t) == DLam(DComp(DShift(), z))
    assert db_normalize_upsilon(DComp(DId(), One())) == One()
    with pytest.raises(InvalidRedex):
        db_apply(One(), (), "Var")


def test_db_marked_contractions():
    assert db_apply(DBoldLam(x), (), "Alpha") == DLam(DComp(DId(), x))
    assert db_apply(DBoldLam(x), (), "Xi") == DLam(x)
    t = DComp(DShift(), DLam(One()))
    assert db_apply(t, (), "Lambda") == DLam(DComp(DLift(DShift()), One()))
    assert db_apply(t, (), "LambdaP") == DBoldLam(DComp(DLift(DShift()), One()))
    t2 = DComp(DShift(), DBoldLam(One()))
    assert db_apply(t2, (), "LambdaPP") == DLam(DComp(DLift(DShift()), One()))
    assert db_apply(t2, (), "LambdaPPP") == DBoldLam(DComp(DLift(DShift()), One()))


def test_upsilon_normal_forms_have_no_slash_id_lift():
    rng = Random(31)
    for _ in range(400):
        n = rng.randint(0, 2)
        a = gen_db(rng, n, rng.randint(1, 20))
        nf = db_normalize_upsilon(a)
        assert db_check(n, nf)

        def clean(u) -> bool:
            match u:
                case FreeName(_) | One():
                    return True
                case DApp(f, b):
                    return clean(f) and clean(b)
                case DLam(b) | DBoldLam(b):
                    return clean(b)
                case DComp(s, b):
                    return isinstance(s, DShift) and clean(b)
            return False

        assert clean(nf), print_db(nf)


def test_translate_weakened_binder():
    d = derive(parse_context("{x}"), parse_term(r"\x. W x * x"))
    assert translate(d) == DLam(DComp(DShift(), x))


def test_translate_rename_to_identity():
    d = derive(parse_context("{}"), parse_term(r"\y. {y x} * x"))
    assert translate(d) == DLam(DComp(DId(), One()))


def test_translate_plain_lambda_terms():
    d = derive(parse_context("{}"), parse_term(r"\x. x"))
    assert translate(d) == DLam(One())
    # a stripped global becomes a shifted free name, an inner hit the index
    d2 = derive(parse_context("{x}"), parse_term(r"\y. x y"))
    assert translate(d2) == DLam(DApp(DComp(DShift(), x), One()))


def test_translate_slash_over_stripped_name():
    d = derive(parse_context("{x,y}"), parse_term("[x/x] * y"))
    assert translate(d) == DComp(DSlash(x), DComp(DShift(), y))


def test_translate_marked_flavor():
    d = derive(parse_context("{x}"), parse_term(r"\x. W x * x"))
    assert translate(d, UPSILON2) == DBoldLam(DComp(DShift(), x))
    # a plain binder stays plain in the marked flavor
    d2 = derive(parse_context("{x}"), parse_term(r"\y. x"))
    assert translate(d2, UPSILON2) == DLam(DComp(DShift(), x))


def test_translate_rejects_an_unknown_flavor():
    d = derive(parse_context("{x}"), parse_term(r"\x. W x * x"))
    assert translate(d, LAMBDA_UPSILON) == translate(d, UPSILON)
    # rejected on entry, also where no binder would read the flavor
    for t in (r"\x. W x * x", "x"):
        with pytest.raises(ValueError, match="unknown flavor: 'bogus'"):
            translate(derive(parse_context("{x}"), parse_term(t)), "bogus")


def test_marked_translation_visits_each_node_once(monkeypatch):
    # every binder of the chain asks whether its variable is free in it;
    # the context is given, as `fv` would leave every context on its node
    t = parse_term("\\x. " * 300 + "W x * x")
    d = derive(context(), t)
    calls, operands = [], freevars._operands
    monkeypatch.setattr(freevars, "_operands", lambda u: calls.append(u) or operands(u))
    translate(d, UPSILON2)
    assert len(calls) <= node_size(t) == 303


def test_translate_arity_matches_local_length():
    rng = Random(32)
    cfg = GenConfig(seed=32, size=25)
    from exsub.generators import gen_wellformed
    for _ in range(300):
        ctx, t = gen_wellformed(cfg, rng)
        a = translate(derive(ctx, t))
        assert db_check(len(ctx.locals), a), print_db(a)


def test_equiv_gamma_goldens():
    g = C({"x"}, ["y"])
    assert equiv_gamma(parse_term("W y * x"), parse_term("x"), g)
    g2 = C({"x"}, [])
    assert equiv_gamma(parse_term(r"\x. W x * x"), parse_term(r"\y. x"), g2)
    assert not equiv_gamma(parse_term(r"\x. W x * x"), parse_term(r"\x. x"), g2)


def test_equiv_gamma_false_on_underivable():
    assert not equiv_gamma(parse_term("x"), parse_term("x"), C((), ()))


def test_equiv_alpha_goldens():
    assert equiv_alpha(parse_term(r"\x. W x * x"), parse_term(r"\y. x"))
    assert not equiv_alpha(parse_term(r"\x. W x * x"), parse_term(r"\x. x"))
    t = parse_term(r"\x.\y. W y * W x * z")
    assert equiv_alpha(t, t)
    # terms that no pure set admits are never alpha equivalent
    assert not equiv_alpha(parse_term("W x * a"), parse_term("W x * a"))


def test_equiv_alpha_independent_of_ambient_set():
    a, b = parse_term(r"\x. W x * x"), parse_term(r"\y. x")
    for extra in ("{x}", "{x,y}", "{x,y,z,w}"):
        assert equiv_gamma(a, b, parse_context(extra))


def test_equiv_gamma_stable_under_ambient_growth():
    # enlarging the global part of the context never changes the verdict
    rng = Random(34)
    cfg = GenConfig(seed=34, size=20)
    from exsub.contexts import Context
    from exsub.generators import gen_wellformed
    from exsub.rewrite import FULL, apply_rule, find_redexes
    for _ in range(200):
        ctx, t = gen_wellformed(cfg, rng)
        redexes = find_redexes(t, FULL)
        other = apply_rule(t, *rng.choice(redexes))[0] if redexes else t
        base = equiv_gamma(t, other, ctx)
        grown = Context(ctx.globals | {"p", "q"}, ctx.locals)
        assert equiv_gamma(t, other, grown) == base


def test_confluence_diamond_from_equivalent_but_distinct_terms():
    # a weakening step preserves the translation, giving pairs of distinct
    # equivalent terms; arbitrary reductions from either side rejoin up to
    # equivalence after normalization
    rng = Random(35)
    cfg = GenConfig(seed=35, size=25)
    from exsub.generators import gen_wellformed
    from exsub.rewrite import FULL, apply_rule, find_redexes, normalize
    exercised = 0
    for _ in range(2000):
        ctx, t = gen_wellformed(cfg, rng)
        w_redexes = [(p, r) for p, r in find_redexes(t, FULL) if r == "W"]
        if not w_redexes:
            continue
        other, _ = apply_rule(t, *rng.choice(w_redexes))
        assert other != t and equiv_gamma(t, other, ctx)
        sides = []
        for start in (t, other):
            cur = start
            for _ in range(rng.randint(0, 4)):
                redexes = find_redexes(cur, FULL)
                if not redexes:
                    break
                cur, _ = apply_rule(cur, *rng.choice(redexes))
            nf, _, exhausted = normalize(cur, FULL, "lo", 4000)
            sides.append(None if exhausted else nf)
        if None in sides:
            continue
        assert equiv_gamma(sides[0], sides[1], ctx)
        exercised += 1
    assert exercised > 50


def test_marked_simulation_of_renaming_chain():
    # \x. W x * x  -Alpha->  \y. {y x} * W x * x  -IdShift->  \y. W y * x
    # -W->  \y. x   tracks, on the marked side,
    # \!(x[^])  -Alpha->  \(x[^][id])  -ShiftId->  \(x[^])  and then no step
    g = parse_context("{x}")
    chain = [parse_term(r"\x. W x * x"), parse_term(r"\y. {y x} * W x * x"),
             parse_term(r"\y. W y * x"), parse_term(r"\y. x")]
    images = [translate(derive(g, t), UPSILON2) for t in chain]
    assert images[0] == DBoldLam(DComp(DShift(), x))
    assert images[1] == DLam(DComp(DId(), DComp(DShift(), x)))
    assert db_apply(images[0], (), "Alpha") == images[1]
    assert db_apply(images[1], (0,), "ShiftId") == images[2]
    assert images[2] == images[3] == DLam(DComp(DShift(), x))


def test_marked_simulation_of_discarded_slash():
    # \x. [W x * x/x] * y  -ShiftP->  \x. y   tracks
    # \!([W * x/] * W * W * y)  -Shift->  \!(W * y)  -Xi->  \(W * y)
    g = parse_context("{x,y}")
    a = translate(derive(g, parse_term(r"\x. [W x * x / x] * y")), UPSILON2)
    wx = DComp(DShift(), x)
    wy = DComp(DShift(), y)
    assert a == DBoldLam(DComp(DSlash(wx), DComp(DShift(), wy)))
    b = translate(derive(g, parse_term(r"\x. y")), UPSILON2)
    assert b == DLam(wy)
    stepped = db_apply(a, (0,), "Shift")
    assert stepped == DBoldLam(wy)
    assert db_apply(stepped, (), "Xi") == b


def test_join_golden_identity_absorption():
    # a[id] and a rejoin when a[id] is well-formed (arity at least one)
    a = One()
    assert db_normalize_upsilon(DComp(DId(), a)) == db_normalize_upsilon(a)
    a2 = DComp(DShift(), One())
    assert db_normalize_upsilon(DComp(DId(), a2)) == db_normalize_upsilon(a2)


def test_join_fails_outside_the_lemma_precondition():
    # with a typed only at arity zero, a[id] is ill-formed and the lemma
    # does not apply; the two normal forms genuinely differ
    a = DLam(DComp(DShift(), x))
    t = DComp(DId(), a)
    assert not any(db_check(n, t) for n in range(5))
    assert db_normalize_upsilon(t) != db_normalize_upsilon(a)


def test_local_confluence_on_wellformed_terms():
    rng = Random(33)
    for _ in range(300):
        n = rng.randint(0, 2)
        a = gen_db(rng, n, rng.randint(2, 20))
        reducts = db_one_step_reducts(a, UPSILON)
        for u in reducts[:3]:
            for v in reducts[:3]:
                assert db_normalize_upsilon(u) == db_normalize_upsilon(v)


def test_print_db_notations():
    a = DLam(DComp(DShift(), x))
    assert print_db(a) == r"\x[^]"
    assert print_db(a, "compose") == r"\W * x"
    b = DLam(DComp(DId(), One()))
    assert print_db(b) == r"\1[id]"
    assert print_db(b, "compose") == r"\id * 1"
    marked = DBoldLam(DComp(DShift(), x))
    assert print_db(marked) == r"\!x[^]"
    assert print_db(marked, "compose") == r"\!W * x"
    nested = DComp(DLift(DSlash(z)), DComp(DShift(), One()))
    assert print_db(nested) == "1[^][^^(z/)]"
    assert print_db(nested, "compose") == "^^[z/] * W * 1"

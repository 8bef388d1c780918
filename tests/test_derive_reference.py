"""`derive` against the two mutually recursive functions it replaced.

The reference below decides terms and substitutions with one function each,
as the judgement engine once did; it is kept here as it was.  `derive`
must build the same derivations and fail at the same paths with the same
reasons.
"""

from __future__ import annotations

from random import Random

import pytest

from exsub.generators import GenConfig, gen_context, gen_raw_term, gen_subst, gen_wellformed
from exsub.judgements import Derivation, NotDerivable, derive, derive_subst
from exsub.syntax import parse_term
from exsub.terms import App, Comp, Lam, Lift, Rename, Slash, VarRef, Weak


def ref_derive(ctx, t, path=()):
    match t:
        case VarRef(x):
            if ctx.locals:
                if ctx.top == x:
                    return Derivation("R2", ctx, t, None, ())
                prem = ref_derive(ctx.pop(), t, path)
                return Derivation("R3", ctx, t, None, (prem,))
            if x in ctx.globals:
                return Derivation("R1", ctx, t, None, ())
            raise NotDerivable(path, f"variable {x} is not in the context")
        case App(f, a):
            df = ref_derive(ctx, f, path + (0,))
            da = ref_derive(ctx, a, path + (1,))
            return Derivation("R4", ctx, t, None, (df, da))
        case Lam(x, b):
            db = ref_derive(ctx.push(x), b, path + (0,))
            return Derivation("R5", ctx, t, None, (db,))
        case Comp(s, b):
            ds, delta = ref_derive_subst(ctx, s, path + (0,))
            db = ref_derive(delta, b, path + (1,))
            return Derivation("R6", ctx, t, None, (ds, db))
    raise TypeError(f"not a term: {t!r}")


def ref_derive_subst(ctx, s, path=()):
    match s:
        case Slash(b, x):
            db = ref_derive(ctx, b, path + (0,))
            out = ctx.push(x)
            return Derivation("R7", ctx, s, out, (db,)), out
        case Weak(x):
            if not ctx.locals or ctx.top != x:
                raise NotDerivable(path, f"W {x} needs a local context ending in {x}")
            out = ctx.pop()
            return Derivation("R8", ctx, s, out, ()), out
        case Rename(y, x):
            if not ctx.locals or ctx.top != y:
                raise NotDerivable(path, f"{{{y} {x}}} needs a local context ending in {y}")
            out = ctx.pop().push(x)
            return Derivation("R9", ctx, s, out, ()), out
        case Lift(inner, x):
            if not ctx.locals or ctx.top != x:
                raise NotDerivable(path, f"lift by {x} needs a local context ending in {x}")
            d, delta = ref_derive_subst(ctx.pop(), inner, path + (0,))
            out = delta.push(x)
            return Derivation("R10", ctx, s, out, (d,)), out
    raise TypeError(f"not a substitution: {s!r}")


def outcome(fn, *args):
    """The result of `fn`, or the path and reason it was refused with."""
    try:
        return fn(*args)
    except NotDerivable as e:
        return e.path, e.reason


def test_wellformed_pairs_derive_as_the_reference_does():
    rng, cfg = Random(20), GenConfig(size=30)
    for _ in range(5000):
        ctx, t = gen_wellformed(cfg, rng)
        assert derive(ctx, t) == ref_derive(ctx, t)


def test_substitutions_derive_as_the_reference_does():
    rng = Random(21)
    for _ in range(5000):
        ctx = gen_context(rng)
        s, out = gen_subst(rng, ctx, rng.randint(1, 12))
        d, got = derive_subst(ctx, s)
        assert (d, got) == ref_derive_subst(ctx, s) and got == out


def test_raw_terms_fail_where_the_reference_fails():
    rng, refusals = Random(22), set()
    for _ in range(5000):
        ctx, t = gen_context(rng), gen_raw_term(rng, rng.randint(1, 20))
        expected = outcome(ref_derive, ctx, t)
        assert outcome(derive, ctx, t) == expected
        if isinstance(expected, tuple):
            refusals.add(expected[1].split()[0][0])
    # a variable, W, a renaming and a lift each refuse somewhere
    assert refusals == {"v", "W", "{", "l"}


def test_derive_subst_refuses_a_term():
    with pytest.raises(TypeError, match="not a substitution: VarRef"):
        derive_subst(gen_context(Random(0)), parse_term("x"))

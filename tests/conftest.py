"""Shared strategies and independent checkers for the test suite."""

from __future__ import annotations

import hashlib
from random import Random

from hypothesis import strategies as st

from exsub.contexts import Context
from exsub.debruijn import UPSILON, DComp, DLam, DShift, One, db_apply, db_find_redexes
from exsub.generators import GenConfig, gen_raw_term, gen_simply_typed, gen_wellformed
from exsub.judgements import Derivation
from exsub.rewrite import Trace, TraceStep, apply_rule, find_redexes
from exsub.terms import (App, Comp, Lam, Lift, Rename, Slash, VarRef, Weak)

NAMES = ("x", "y", "z", "w")

var_names = st.sampled_from(NAMES)

contexts = st.builds(
    Context,
    st.frozensets(var_names, max_size=3),
    st.lists(var_names, max_size=3).map(tuple),
)


raw_terms = st.deferred(lambda: st.one_of(
    st.builds(VarRef, var_names),
    st.builds(App, raw_terms, raw_terms),
    st.builds(Lam, var_names, raw_terms),
    st.builds(Comp, raw_substs, raw_terms),
))

raw_substs = st.deferred(lambda: st.one_of(
    st.builds(Slash, raw_terms, var_names),
    st.builds(Weak, var_names),
    st.builds(Rename, var_names, var_names),
    st.builds(Lift, raw_substs, var_names),
))


MULT = r"(\m. \n. \f. m (n f))"


def church(n: int) -> str:
    """The text of the Church numeral c_n."""
    return r"(\f. \x. " + "f (" * n + "x" + ")" * n + ")"


def numeral(n: int, bottom: str = "x") -> Lam:
    """The term `church(n)` parses to, built without the parser; with
    `bottom` in place of the innermost x."""
    body = VarRef(bottom)
    for _ in range(n):
        body = App(VarRef("f"), body)
    return Lam("f", Lam("x", body))


def mult(k: int) -> App:
    """The term `MULT` applied to c_k and c_k."""
    m = Lam("m", Lam("n", Lam("f", App(VarRef("m"), App(VarRef("n"), VarRef("f"))))))
    return App(App(m, numeral(k)), numeral(k))


def all_nodes(t) -> list:
    """Every node of `t`, of either calculus, in pre-order."""
    out, stack = [], [t]
    while stack:
        u = stack.pop()
        out.append(u)
        stack.extend(getattr(u, f) for f in u.CHILDREN)
    return out


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def named_inputs(seed: int, rounds: int):
    """`rounds` times a well-formed, a simply typed and a raw named term."""
    rng, cfg = Random(seed), GenConfig(seed=seed, size=20)
    for _ in range(rounds):
        yield gen_wellformed(cfg, rng)[1]
        yield gen_simply_typed(rng, cfg)
        yield gen_raw_term(rng, rng.randint(2, 20))


def oracle_normalize(t, rules, fuel):
    """Leftmost-outermost normalization by the simplest engine: take the
    first redex that a scan of the whole term lists, contract it with
    `apply_rule`, repeat.  Returns the term reached, a trace whose steps
    hold their results, and whether a redex is left after `fuel` steps,
    as `normalize` does."""
    cur, steps = t, []
    for _ in range(fuel):
        redexes = find_redexes(cur, rules)
        if not redexes:
            return cur, Trace(t, tuple(steps)), False
        path, rule = redexes[0]
        cur, fresh = apply_rule(cur, path, rule)
        steps.append(TraceStep(rule, path, fresh, cur))
    return cur, Trace(t, tuple(steps)), bool(find_redexes(cur, rules))


def oracle_db_normalize(a):
    """The upsilon normal form by the same engine over `db_find_redexes`."""
    while redexes := db_find_redexes(a, UPSILON):
        a = db_apply(a, *redexes[0])
    return a


def shifted_binders(n: int, bottom=One()):
    """n de Bruijn binders over n - 1 shifts of `bottom`, 2n - 1 levels deep.
    With the index at the bottom it is the outermost binder's variable, and
    pushing a lift through it takes Lambda at every binder and ShiftLift at
    every shift, one step each."""
    c = bottom
    for _ in range(n - 1):
        c = DComp(DShift(), c)
    for _ in range(n):
        c = DLam(c)
    return c


def grow_context(rng: Random, ctx: Context, moves: int = 3) -> Context:
    """A context above `ctx`, reached by the two generating moves of the
    order: add a fresh global, or shift a name onto the front of the local
    list while dropping it from the globals."""
    pool = NAMES + ("p", "q", "r")
    for _ in range(rng.randint(0, moves)):
        if rng.random() < 0.5:
            fresh = [v for v in pool if v not in ctx.globals]
            if fresh:
                ctx = Context(ctx.globals | {rng.choice(fresh)}, ctx.locals)
        else:
            x = rng.choice(pool)
            ctx = Context(ctx.globals - {x}, (x,) + ctx.locals)
    return ctx


def assert_valid_derivation(d: Derivation) -> None:
    """Re-verify every node of a derivation against the inference rules,
    independently of how the checker constructed it."""
    ctx, subj = d.ctx, d.subject
    match d.rule:
        case "R1":
            assert isinstance(subj, VarRef) and ctx.is_set and subj.name in ctx.globals
            assert not d.premises and d.out is None
        case "R2":
            assert isinstance(subj, VarRef) and ctx.locals and ctx.top == subj.name
            assert not d.premises
        case "R3":
            assert isinstance(subj, VarRef) and ctx.locals and ctx.top != subj.name
            (p,) = d.premises
            assert p.ctx == ctx.pop() and p.subject == subj
        case "R4":
            assert isinstance(subj, App)
            pf, pa = d.premises
            assert pf.ctx == ctx and pa.ctx == ctx
            assert pf.subject == subj.fn and pa.subject == subj.arg
        case "R5":
            assert isinstance(subj, Lam)
            (p,) = d.premises
            assert p.ctx == ctx.push(subj.var) and p.subject == subj.body
        case "R6":
            assert isinstance(subj, Comp)
            ps, pb = d.premises
            assert ps.ctx == ctx and ps.subject == subj.sub and ps.out is not None
            assert pb.ctx == ps.out and pb.subject == subj.body
        case "R7":
            assert isinstance(subj, Slash)
            (p,) = d.premises
            assert p.ctx == ctx and p.subject == subj.term
            assert d.out == ctx.push(subj.var)
        case "R8":
            assert isinstance(subj, Weak) and ctx.locals and ctx.top == subj.var
            assert not d.premises and d.out == ctx.pop()
        case "R9":
            assert isinstance(subj, Rename) and ctx.locals and ctx.top == subj.new
            assert not d.premises and d.out == ctx.pop().push(subj.old)
        case "R10":
            assert isinstance(subj, Lift) and ctx.locals and ctx.top == subj.var
            (p,) = d.premises
            assert p.ctx == ctx.pop() and p.subject == subj.sub and p.out is not None
            assert d.out == p.out.push(subj.var)
        case _:
            raise AssertionError(f"unknown rule {d.rule}")
    for p in d.premises:
        assert_valid_derivation(p)

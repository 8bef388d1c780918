"""Free variables of a term, computed as a context.

The free variables of a term form a context, not a bare set: the least
context in which the term is derivable.  The computation is partial; an
undefined result means no such context exists and the term cannot be
well-formed.

The three substitution forms other than weakening are handled by rewriting
into an equivalent term and recursing:

    fv([B/x] * A)  =  fv((\\x. A) B)
    fv({y x} * A)  =  fv(W y * \\x. A)
    fv(S^x * A)    =  fv(W x * S * \\x. A)

Each unfolding removes one slash, renaming, or lift, so the recursion
terminates even though the argument can momentarily grow.
"""

from __future__ import annotations

from .contexts import Context, ctx_sup, o_lambda
from .terms import App, Comp, Lam, Lift, Node, Rename, Slash, Term, VarRef, Weak

# Memo entries hold the node itself so its id stays valid for the cache key.
_Memo = dict[int, tuple[Term, "Context | None"]]


def fv(t: Term, *, memo: _Memo | None = None) -> Context | None:
    """Free-variable context of `t`, or None when it does not exist.

    Purely syntactic: may be applied to ill-formed terms.  An optional memo
    dictionary can be shared across calls on overlapping terms (the rewrite
    engine does this between reduction steps).
    """
    if memo is None:
        memo = {}
    return _fv(t, memo)


def _unfold(t: Comp) -> Term:
    """The equivalent term that `fv` recurses into for a composition with a
    slash, renaming or lift (see the module docstring)."""
    match t:
        case Comp(Slash(arg, x), b):
            return App(Lam(x, b), arg)
        case Comp(Rename(y, x), b):
            return Comp(Weak(y), Lam(x, b))
        case Comp(Lift(s, x), b):
            return Comp(Weak(x), Comp(s, Lam(x, b)))
    raise TypeError(f"not a term: {t!r}")


def _fv(t: Term, memo: _Memo) -> Context | None:
    hit = memo.get(id(t))
    if hit is not None and hit[0] is t:
        return hit[1]
    # Post-order on an explicit stack, so that deep terms do not hit the
    # recursion limit.  A node is pushed bare to be visited, then as a pair
    # (node, operands), under its operands (its children or its unfolding),
    # to be combined once their contexts are in the memo.
    stack: list = [t]
    while stack:
        u = stack.pop()
        if type(u) is tuple:
            u, ops = u
            match u:
                case App(_, _):
                    cf, ca = memo[id(ops[0])][1], memo[id(ops[1])][1]
                    res = None if cf is None or ca is None else ctx_sup(cf, ca)
                case Lam(x, _):
                    cb = memo[id(ops[0])][1]
                    res = None if cb is None else o_lambda(x, cb)
                case Comp(Weak(x), _):
                    cb = memo[id(ops[0])][1]
                    res = None if cb is None else cb.push(x)
                case _:
                    res = memo[id(ops[0])][1]
            memo[id(u)] = (u, res)
            continue
        hit = memo.get(id(u))
        if hit is not None and hit[0] is u:
            continue
        match u:
            case VarRef(x):
                memo[id(u)] = (u, Context(frozenset((x,)), ()))
                continue
            case App(f, a):
                stack += ((u, (f, a)), a, f)
                continue
            case Lam(_, b) | Comp(Weak(_), b):
                ops = (b,)
            case _:
                ops = (_unfold(u),)
        stack += ((u, ops), ops[0])
    return memo[id(t)][1]


def fv_blame(t: Term) -> Node | None:
    """The subterm at which the free-variable computation first becomes
    undefined, or None when fv(t) is defined.  The blamed node may be in
    the rewritten form used by the recursion; it is meant for diagnostics.
    """
    memo: _Memo = {}

    def walk(u: Term) -> Node | None:
        if _fv(u, memo) is not None:
            return None
        match u:
            case App(f, a):
                return walk(f) or walk(a) or u
            case Lam(_, b) | Comp(Weak(_), b):
                return walk(b) or u
            case Comp(_, _):
                return walk(_unfold(u)) or u
        return u

    return walk(t)

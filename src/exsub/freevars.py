"""Free variables of a term, computed as a context.

The free variables of a term form a context, not a bare set: the least
context in which the term is derivable.  The computation is partial; an
undefined result means no such context exists and the term cannot be
well-formed.

The three substitution forms other than weakening are specified by
rewriting into an equivalent term:

    fv([B/x] * A)  =  fv((\\x. A) B)
    fv({y x} * A)  =  fv(W y * \\x. A)
    fv(S^x * A)    =  fv(W x * S * \\x. A)

Each equation is computed as an action of the substitution on the context
c = fv(A), so no node is built:

    W x     c.push(x)
    [B/x]   ctx_sup(o_lambda(x, c), fv(B))
    {y x}   o_lambda(x, c).push(y)
    S^x     S acting on o_lambda(x, c), then .push(x)

A lift chain is walked down from the outside, each lift eliminating its
variable, and the variables are pushed back in the order of the chain once
the innermost substitution has acted.  An undefined step makes the whole
result undefined.
"""

from __future__ import annotations

from .contexts import Context, ctx_sup, o_lambda
from .terms import App, Comp, Lam, Lift, Node, Rename, Slash, Term, VarRef, Weak

# Memo entries hold the node itself so its id stays valid for the cache key.
_Memo = dict[int, tuple[Term, "Context | None"]]


def fv(t: Term, *, memo: _Memo | None = None) -> Context | None:
    """Free-variable context of `t`, or None when it does not exist.

    Purely syntactic: may be applied to ill-formed terms.  An optional memo
    dictionary can be shared across calls on overlapping terms; it only ever
    holds subterms of the terms it was given.  The rewrite engine, between
    reduction steps, and `debruijn.translate` share one the same way by
    calling `_fv` directly.
    """
    if memo is None:
        memo = {}
    return _fv(t, memo)


def _operands(u: Term) -> tuple[Term, ...]:
    """The subterms whose contexts give the context of `u`."""
    cls = type(u)
    if cls is App:
        return u.fn, u.arg
    if cls is Lam:
        return (u.body,)
    if cls is Comp:
        s = u.sub
        while type(s) is Lift:
            s = s.sub
        return (u.body, s.term) if type(s) is Slash else (u.body,)
    if cls is VarRef:
        return ()
    raise TypeError(f"not a term: {u!r}")


def _act(s, c: Context | None, memo: _Memo) -> Context | None:
    """fv(s * A) from c = fv(A), reading the context of a slash's argument
    from the memo (see the module docstring)."""
    lifted = []
    while type(s) is Lift:
        if c is None:
            return None
        c = o_lambda(s.var, c)
        lifted.append(s.var)
        s = s.sub
    if c is None:
        return None
    cls = type(s)
    if cls is Weak:
        c = c.push(s.var)
    elif cls is Slash:
        c, cb = o_lambda(s.var, c), memo[id(s.term)][1]
        c = None if c is None or cb is None else ctx_sup(c, cb)
    elif cls is Rename:
        c = o_lambda(s.old, c)
        if c is not None:
            c = c.push(s.new)
    else:
        raise TypeError(f"not a substitution: {s!r}")
    if c is None or not lifted:
        return c
    lifted.reverse()
    return Context(c.globals, c.locals + tuple(lifted))


def _fv(t: Term, memo: _Memo) -> Context | None:
    hit = memo.get(id(t))
    if hit is not None and hit[0] is t:
        return hit[1]
    # Post-order on an explicit stack, so that deep terms do not hit the
    # recursion limit.  A node is pushed bare to be visited, then in a
    # 1-tuple, under its operands, to be combined once their contexts are
    # in the memo.
    stack: list = [t]
    while stack:
        u = stack.pop()
        if type(u) is tuple:
            u = u[0]
            cls = type(u)
            if cls is App:
                cf, ca = memo[id(u.fn)][1], memo[id(u.arg)][1]
                res = None if cf is None or ca is None else ctx_sup(cf, ca)
            elif cls is Lam:
                cb = memo[id(u.body)][1]
                res = None if cb is None else o_lambda(u.var, cb)
            else:
                res = _act(u.sub, memo[id(u.body)][1], memo)
            memo[id(u)] = (u, res)
            continue
        hit = memo.get(id(u))
        if hit is not None and hit[0] is u:
            continue
        if type(u) is VarRef:
            memo[id(u)] = (u, Context(frozenset((u.name,)), ()))
            continue
        stack.append((u,))
        stack += _operands(u)[::-1]
    return memo[id(t)][1]


def fv_blame(t: Term) -> Node | None:
    """The subterm of `t` at which the free-variable computation first
    becomes undefined, or None when fv(t) is defined: the first operand
    (the children of an application or abstraction, the body of a
    composition, then its slash's argument) whose context is undefined is
    entered, and the node none of whose operands is undefined is blamed.
    """
    memo: _Memo = {}
    if _fv(t, memo) is not None:
        return None
    u = t
    while True:
        for v in _operands(u):
            if _fv(v, memo) is None:
                u = v
                break
        else:
            return u

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
from .terms import App, Comp, Lam, Lift, Node, Rename, Slash, Term, VarRef, Weak, set_cache


_TERMS = frozenset(Term.__args__)
# The context of a variable, one per name, so that every occurrence of a
# name shares it; cleared once it holds this many names, so it stays bounded.
_LEAVES: dict[str, Context] = {}
_LEAVES_MAX = 256


def _operands(u: Term) -> tuple[Term, ...]:
    """The subterms whose contexts give the context of the term `u`."""
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
    return ()


def _act(s, c: Context | None) -> Context | None:
    """fv(s * A) from c = fv(A), reading the context of a slash's argument
    from its cache slot (see the module docstring)."""
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
        c, cb = o_lambda(s.var, c), s.term.fv
        c = None if c is None or not cb else ctx_sup(c, cb)
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


def fv(t: Term) -> Context | None:
    """Free-variable context of `t`, or None when it does not exist.

    Purely syntactic: may be applied to ill-formed terms, but raises
    TypeError on a substitution in a term position.  Each term node's
    context is kept in its cache slot `fv` (False when undefined), and a
    node whose slot is filled is not entered again, so a call reuses what
    any earlier call computed on a shared subterm.  Every variable of one
    name gets the same context, from the table `_LEAVES`.  A patch of `_act`,
    `o_lambda` or `ctx_sup` reaches only the contexts computed after it.
    """
    # Post-order on an explicit stack, so that deep terms do not hit the
    # recursion limit.  A node is pushed bare to be visited, then in a
    # 1-tuple, under its operands, to be combined once their contexts are
    # in their slots.  A substitution has no slot: the class comes first.
    stack: list = [t]
    while stack:
        u = stack.pop()
        cls = type(u)
        if cls is tuple:
            u = u[0]
            cls = type(u)
            if cls is App:
                res = u.fn.fv and u.arg.fv and ctx_sup(u.fn.fv, u.arg.fv)
            elif cls is Lam:
                res = u.body.fv and o_lambda(u.var, u.body.fv)
            else:
                res = _act(u.sub, u.body.fv or None)
            set_cache(u, "fv", res or False)
        elif cls not in _TERMS:
            raise TypeError(f"not a term: {u!r}")
        elif u.fv is None:
            if cls is VarRef:
                c = _LEAVES.get(u.name)
                if c is None:
                    if len(_LEAVES) >= _LEAVES_MAX:
                        _LEAVES.clear()
                    c = _LEAVES[u.name] = Context(frozenset((u.name,)), ())
                set_cache(u, "fv", c)
            else:
                stack.append((u,))
                stack += _operands(u)[::-1]
    return t.fv or None


_fv = fv    # the old name of the fill loop, which perfbench/tracer.py wraps


def fv_blame(t: Term) -> Node | None:
    """The subterm of `t` at which the free-variable computation first
    becomes undefined, or None when fv(t) is defined: the first operand
    (the children of an application or abstraction, the body of a
    composition, then its slash's argument) whose context is undefined is
    entered, and the node none of whose operands is undefined is blamed.
    """
    if fv(t) is not None:
        return None
    u = t
    while True:
        for v in _operands(u):
            if fv(v) is None:
                u = v
                break
        else:
            return u

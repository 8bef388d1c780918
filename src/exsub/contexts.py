"""Contexts: a global variable set paired with a local variable list.

A context is a pair of a finite set of global names and a finite ordered
list of local names in which repetitions are allowed.  The local list grows
on the right: ``ctx.push(x)`` is the context obtained by entering a binder
for x.  Contexts carry a partial order ``ctx_le``, a compatibility relation,
a supremum ``ctx_sup`` (defined exactly on compatible pairs), and the binder
elimination operator ``o_lambda`` used to compute free variables.
"""

from __future__ import annotations

from .terms import Value, Var


class Context(Value):
    globals: frozenset[Var]
    locals: tuple[Var, ...]

    def push(self, x: Var) -> "Context":
        return Context(self.globals, self.locals + (x,))

    def pop(self) -> "Context":
        if not self.locals:
            raise ValueError("cannot pop an empty local context")
        return Context(self.globals, self.locals[:-1])

    @property
    def top(self) -> Var:
        return self.locals[-1]

    @property
    def is_set(self) -> bool:
        return not self.locals

    def __contains__(self, x: Var) -> bool:
        return x in self.globals or x in self.locals


def context(globs=(), locs=()) -> Context:
    return Context(frozenset(globs), tuple(locs))


def ctx_le(a: Context, b: Context) -> bool:
    """The order on contexts.

    a = G1,L1 is below b = G2,L2 when L2 = L ++ L1 for some prefix L and
    every global of G1 occurs in G2 or in that prefix.
    """
    n = len(a.locals)
    if n > len(b.locals):
        return False
    cut = len(b.locals) - n
    if n and b.locals[cut:] != a.locals:
        return False
    prefix = b.locals[:cut]
    return all(x in b.globals or x in prefix for x in a.globals)


def ctx_compatible(a: Context, b: Context) -> bool:
    """True when the two local lists are suffix-related (sets always are)."""
    la, lb = a.locals, b.locals
    if len(la) > len(lb):
        la, lb = lb, la
    return not la or lb[len(lb) - len(la):] == la


def ctx_sup(a: Context, b: Context) -> Context | None:
    """Least upper bound, or None when the contexts are incompatible.

    Peel equal rightmost locals off both lists; once one list is empty,
    each further local peeled off the other is removed from the first's
    set; the two sets then join by union.  The peeling is one comparison
    of the shorter list with the end of the longer, and one set
    difference with the rest of the longer.
    """
    la, lb = a.locals, b.locals
    if len(la) < len(lb):
        a, b, la, lb = b, a, lb, la
    cut = len(la) - len(lb)
    if lb and la[cut:] != lb:
        return None
    gb = b.globals.difference(la[:cut]) if cut else b.globals
    return Context(a.globals | gb, la)


def o_lambda(x: Var, ctx: Context) -> Context | None:
    """Eliminate the binder for x: drop a rightmost local x, or remove x
    from a pure set.  Undefined when the local list ends in another name."""
    if ctx.locals:
        return ctx.pop() if ctx.top == x else None
    return Context(ctx.globals - {x}, ())


def format_context(ctx: Context) -> str:
    g = "{" + ",".join(sorted(ctx.globals)) + "}"
    if not ctx.locals:
        return g
    return g + "; " + ",".join(ctx.locals)

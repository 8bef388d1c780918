"""Normal-form recognition and conversion back to ordinary lambda terms.

Propagation normal forms are built from variables and blocks by
application and abstraction, where a block is a chain of weakenings
closed off by a weakening of the variable it denotes:

    B ::= W z * z | W x * B

A term admitted by a pure set that is also normal for the propagation
rules together with Alpha contains no blocks at all; `to_pure` relies on
that and refuses (rather than repairs) any surviving composition.
"""

from __future__ import annotations

from .pure import PureTerm
from .syntax import print_term
from .terms import App, Comp, Lam, Term, VarRef, Weak


class ContainsBlock(Exception):
    """A composition survived where a pure lambda term was guaranteed."""

    def __init__(self, offending: Term):
        super().__init__(f"residual substitution in {print_term(offending)}")
        self.offending = offending


def is_block(t: Term) -> bool:
    while type(t) is Comp and type(t.sub) is Weak:
        if type(t.body) is VarRef:
            return t.sub.var == t.body.name
        t = t.body
    return False


def _compositions(t: Term) -> Iterator[Comp]:
    """The compositions of `t` that no other composition holds, outside-in
    and left to right, on an explicit stack; a node that is not a term
    raises `TypeError` where the walk meets it."""
    stack = [t]
    while stack:
        u = stack.pop()
        cls = type(u)
        if cls is App:
            stack += (u.arg, u.fn)
        elif cls is Lam:
            stack.append(u.body)
        elif cls is Comp:
            yield u
        elif cls is not VarRef:
            raise TypeError(f"not a term: {u!r}")


def is_sigma_nf(t: Term) -> bool:
    """Membership in the normal-form grammar for the propagation rules."""
    return all(is_block(c) for c in _compositions(t))


def to_pure(t: Term) -> PureTerm:
    """Identity embedding into pure lambda syntax: `t` itself.

    Intended for terms admitted by a pure set and normal under the
    propagation rules plus Alpha; such terms provably contain no
    compositions, so any composition found here is a hard failure worth
    surfacing with the offending subterm.
    """
    for c in _compositions(t):
        raise ContainsBlock(c)
    return t

"""The judgement engine: deciding whether a context admits a term.

Judgements come in two forms: a context admits a term, or a substitution
maps one context to another.  One syntax-directed function, `derive`,
decides both and builds the unique derivation bottom-up; no search is ever
needed.  For a variable the rule is decided by the rightmost local name (R2
on a match, R3 to strip a mismatch, R1 against a pure set); a substitution
fixes its output context, which its derivation carries (R6 reads it).

Rules, with S ranging over substitutions and x, y over names:

    R1   G |- x                      (x in G, empty local part)
    R2   C,x |- x
    R3   C |- x  =>  C,y |- x        (x != y)
    R4   C |- A and C |- B  =>  C |- A B
    R5   C,x |- A  =>  C |- \\x. A
    R6   C |- S |> D and D |- A  =>  C |- S * A
    R7   C |- B  =>  C |- [B/x] |> C,x
    R8   C,x |- W x |> C
    R9   C,y |- {y x} |> C,x
    R10  C |- S |> D  =>  C,x |- S^x |> D,x
"""

from __future__ import annotations

from .contexts import Context, format_context
from .freevars import fv, fv_blame
from .syntax import print_subst, print_term
from .terms import (App, Comp, Lam, Lift, Path, Rename, Slash, Subst,
                    Term, Value, VarRef, Weak)


class NotDerivable(Exception):
    """No derivation exists; `path`, the child positions from the root
    down (see :mod:`exsub.terms`), addresses the failing node."""

    def __init__(self, path: Path, reason: str):
        super().__init__(reason)
        self.path = path
        self.reason = reason


class IllFormed(Exception):
    """The term is not derivable in any context."""


class Derivation(Value):
    """One node of a derivation tree.

    `out` is the output context of a substitution judgement and None for a
    term judgement.  For a fixed conclusion the tree is unique.
    """

    rule: str  # R1 .. R10
    ctx: Context
    subject: Term | Subst
    out: Context | None
    premises: tuple["Derivation", ...]


def derive(ctx: Context, t: Term | Subst, path: Path = ()) -> Derivation:
    """The unique derivation of `ctx |- t` (or `ctx |- t |> out`), or NotDerivable."""
    match t:
        case VarRef(x):
            if ctx.locals:
                if ctx.top == x:
                    return Derivation("R2", ctx, t, None, ())
                prem = derive(ctx.pop(), t, path)
                return Derivation("R3", ctx, t, None, (prem,))
            if x in ctx.globals:
                return Derivation("R1", ctx, t, None, ())
            raise NotDerivable(path, f"variable {x} is not in the context")
        case App(f, a):
            df = derive(ctx, f, path + (0,))
            da = derive(ctx, a, path + (1,))
            return Derivation("R4", ctx, t, None, (df, da))
        case Lam(x, b):
            db = derive(ctx.push(x), b, path + (0,))
            return Derivation("R5", ctx, t, None, (db,))
        case Comp(s, b):
            ds = derive(ctx, s, path + (0,))
            db = derive(ds.out, b, path + (1,))
            return Derivation("R6", ctx, t, None, (ds, db))
        case Slash(b, x):
            db = derive(ctx, b, path + (0,))
            return Derivation("R7", ctx, t, ctx.push(x), (db,))
        case Weak(x):
            if not ctx.locals or ctx.top != x:
                raise NotDerivable(path, f"W {x} needs a local context ending in {x}")
            return Derivation("R8", ctx, t, ctx.pop(), ())
        case Rename(y, x):
            if not ctx.locals or ctx.top != y:
                raise NotDerivable(path, f"{{{y} {x}}} needs a local context ending in {y}")
            return Derivation("R9", ctx, t, ctx.pop().push(x), ())
        case Lift(inner, x):
            if not ctx.locals or ctx.top != x:
                raise NotDerivable(path, f"lift by {x} needs a local context ending in {x}")
            d = derive(ctx.pop(), inner, path + (0,))
            return Derivation("R10", ctx, t, d.out.push(x), (d,))
    raise TypeError(f"not a term or substitution: {t!r}")


def derive_subst(ctx: Context, s: Subst, path: Path = ()) -> tuple[Derivation, Context]:
    """The unique derivation of `ctx |- s |> out`, plus its output context."""
    if not isinstance(s, Subst):
        raise TypeError(f"not a substitution: {s!r}")
    d = derive(ctx, s, path)
    return d, d.out


def well_formed(t: Term) -> Context:
    """The least context admitting `t`; raises IllFormed when none exists.

    Computes the free-variable context first; when that is defined it is
    guaranteed to be the least witness, so a single derivation check
    completes the decision.
    """
    c = fv(t)
    if c is None:
        blame = fv_blame(t)
        where = "" if blame is None else f" near {_show(blame)}"
        raise IllFormed(f"free variables undefined{where}")
    try:
        derive(c, t)
    except NotDerivable as e:
        raise IllFormed(f"not derivable in its own free-variable context: {e.reason}") from e
    return c


def is_good(t: Term) -> bool:
    """True when some pure set admits `t` (least context has no local part)."""
    try:
        return well_formed(t).is_set
    except IllFormed:
        return False


def _show(node: Term | Subst) -> str:
    if isinstance(node, Subst):
        return print_subst(node)
    return print_term(node)


def format_derivation(d: Derivation) -> str:
    """Render a derivation tree, one judgement per line, premises indented.
    The tree is walked in pre-order on an explicit stack, so a derivation
    of any depth is rendered."""
    lines, stack = [], [(d, 0)]
    while stack:
        d, indent = stack.pop()
        line = f"{'  ' * indent}{d.rule:<3} {format_context(d.ctx)} |- {_show(d.subject)}"
        if d.out is not None:
            line += f" |> {format_context(d.out)}"
        lines.append(line)
        stack.extend((p, indent + 1) for p in reversed(d.premises))
    return "\n".join(lines)

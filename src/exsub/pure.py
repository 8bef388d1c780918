"""Classical lambda calculus oracle: textbook capture-avoiding reduction.

Pure terms are ordinary lambda terms, represented by the same node types
as the full syntax but containing no composition nodes.  Everything here
is deliberately independent of the explicit-substitution machinery: beta
steps substitute at the meta level, renaming binders on the fly, so the
results can serve as an oracle for the rewrite engine.
"""

from __future__ import annotations

import itertools

from .terms import App, Comp, Lam, Term, Var, VarRef

# A PureTerm is a Term with no Comp nodes.
PureTerm = Term


def is_pure(t: Term) -> bool:
    """Whether `t` holds no composition; on a stack, so at any depth."""
    stack = [t]
    while stack:
        match stack.pop():
            case VarRef(_):
                pass
            case App(f, a):
                stack += (a, f)
            case Lam(_, b):
                stack.append(b)
            case Comp(_, _):
                return False
            case u:
                raise TypeError(f"not a term: {u!r}")
    return True


def pure_free_vars(t: PureTerm) -> frozenset[Var]:
    match t:
        case VarRef(x):
            return frozenset((x,))
        case App(f, a):
            return pure_free_vars(f) | pure_free_vars(a)
        case Lam(x, b):
            return pure_free_vars(b) - {x}
    raise TypeError(f"not a pure term: {t!r}")


def _rename_away(base: Var, avoid: frozenset[Var]) -> Var:
    stem = base.rstrip("0123456789").rstrip("_") or "v"
    for i in itertools.count(1):
        c = f"{stem}_{i}"
        if c not in avoid:
            return c
    raise AssertionError("unreachable")


def substitute(t: PureTerm, x: Var, val: PureTerm) -> PureTerm:
    """Capture-avoiding substitution of `val` for free occurrences of `x`."""
    match t:
        case VarRef(y):
            return val if y == x else t
        case App(f, a):
            return App(substitute(f, x, val), substitute(a, x, val))
        case Lam(y, b):
            if y == x or x not in pure_free_vars(b):
                return t
            if y in pure_free_vars(val):
                z = _rename_away(y, pure_free_vars(val) | pure_free_vars(b))
                b = substitute(b, y, VarRef(z))
                return Lam(z, substitute(b, x, val))
            return Lam(y, substitute(b, x, val))
    raise TypeError(f"not a pure term: {t!r}")


def _beta_step(t: PureTerm) -> PureTerm | None:
    # leftmost-outermost
    match t:
        case App(Lam(x, b), a):
            return substitute(b, x, a)
        case App(f, a):
            rf = _beta_step(f)
            if rf is not None:
                return App(rf, a)
            ra = _beta_step(a)
            return None if ra is None else App(f, ra)
        case Lam(x, b):
            rb = _beta_step(b)
            return None if rb is None else Lam(x, rb)
        case VarRef(_):
            return None
    raise TypeError(f"not a pure term: {t!r}")


def classical_normalize(t: PureTerm, fuel: int = 10000) -> tuple[PureTerm, bool]:
    """Leftmost-outermost beta normalization; the flag reports exhaustion."""
    cur = t
    for _ in range(fuel):
        nxt = _beta_step(cur)
        if nxt is None:
            return cur, False
        cur = nxt
    return cur, _beta_step(cur) is not None


def alpha_eq(a: PureTerm, b: PureTerm) -> bool:
    """Classical alpha congruence of pure terms."""

    def go(a: PureTerm, b: PureTerm, ea: dict[Var, int], eb: dict[Var, int],
           depth: int) -> bool:
        match a, b:
            case VarRef(x), VarRef(y):
                return ea.get(x) == eb.get(y) if x in ea or y in eb else x == y
            case App(f1, a1), App(f2, a2):
                return go(f1, f2, ea, eb, depth) and go(a1, a2, ea, eb, depth)
            case Lam(x, b1), Lam(y, b2):
                return go(b1, b2, {**ea, x: depth}, {**eb, y: depth}, depth + 1)
        return False

    return go(a, b, {}, {}, 0)

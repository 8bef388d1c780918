"""Termination certificates for the de Bruijn calculi.

Two instruments:

* a pair of multiplicative weights under which every substitution rule is
  lexicographically decreasing (the first weight strictly, except on
  ShiftLift where the second takes over), certifying termination of the
  substitution rules alone;

* a labelling of composition and marked-binder nodes by additive weights,
  together with a lexicographic path order on the labelled signature,
  certifying termination of the marked system.  The precedence makes each
  labelled composition bigger than application, plain binders, lifts,
  identities and same-label marks, makes each mark bigger than identities
  and mark_0 bigger than plain binders, makes lift bigger than shift, and
  interleaves marks and compositions by label:

      ... mark_i < comp_i < mark_{i+1} < comp_{i+1} < ...

  Symbols not forced apart by those generators stay incomparable; the
  order used here is exactly their transitive closure.

A labelled node, as returned by :func:`label`, is a plain pair
``(symbol, args)``.  The symbol is a tuple of the constructor name and,
for ``comp`` and ``mark``, the label, or for ``name`` the free name:
``("comp", 2)``, ``("mark", 1)``, ``("name", "x")``, ``("app",)``.  The
args are the labelled children in ``CHILDREN`` order, so ``DComp(s, a)``
labels to ``(("comp", i), (label(s), label(a)))``.
"""

from __future__ import annotations

from .debruijn import (DApp, DBoldLam, DBSub, DBTerm, DComp, DId, DLam,
                       DLift, DShift, DSlash, FreeName, One)
from .terms import children

# (symbol, args); see the module docstring
Labelled = tuple[tuple, tuple]


def weights12(node: DBTerm | DBSub) -> tuple[int, int]:
    """The multiplicative weight pair (names and leaves weigh 2, bracket
    multiplies, lift doubles the second component only)."""
    match node:
        case FreeName(_) | One() | DShift() | DId():
            return 2, 2
        case DApp(f, a):
            w1, w2 = weights12(f)
            v1, v2 = weights12(a)
            return w1 + v1 + 1, w2 + v2 + 1
        case DLam(b):
            w1, w2 = weights12(b)
            return w1 + 1, w2 + 1
        case DComp(s, b):
            w1, w2 = weights12(b)
            v1, v2 = weights12(s)
            return w1 * v1, w2 * v2
        case DSlash(b):
            return weights12(b)
        case DLift(s):
            w1, w2 = weights12(s)
            return w1, 2 * w2
    raise TypeError(f"weights are defined on plain de Bruijn nodes, not {node!r}")


def weight(node: DBTerm | DBSub) -> int:
    """The additive weight: binders add one, composition adds, application
    takes the maximum, everything atomic weighs nothing."""
    return _label(node)[1]


def label(node: DBTerm | DBSub) -> Labelled:
    """Label every composition and marked binder with the additive weight
    of the whole node; other nodes carry no label."""
    return _label(node)[0]


_SYMBOL = {FreeName: "name", One: "one", DApp: "app", DLam: "lam",
           DBoldLam: "mark", DComp: "comp", DSlash: "slash", DShift: "shift",
           DId: "id", DLift: "lift"}


def _label(node) -> tuple[Labelled, int]:
    sym = _SYMBOL.get(type(node))
    if sym is None:
        raise TypeError(f"not a de Bruijn node: {node!r}")
    if sym == "name":
        return (("name", node.name), ()), 0
    args, ws = [], []
    for _, c in children(node):
        lc, wc = _label(c)
        args.append(lc)
        ws.append(wc)
    if sym == "app":
        w = max(ws)
    elif sym in ("lam", "mark"):
        w = ws[0] + 1
    else:
        w = sum(ws)
    return ((sym, w) if sym in ("comp", "mark") else (sym,), tuple(args)), w


def _args(n: Labelled) -> tuple[Labelled, ...]:
    # lpo_gt unpacks its operands itself; perfbench/tracer.py sizes them
    # through this function
    return n[1]


# The precedence by rank: mark_i ranks 2i and comp_i ranks 2i+1, and each is
# above every symbol of lower rank.  The unlabelled symbols below some label
# have a floor rank; lift > shift is the one pair of two unlabelled symbols.
_LABELLED = {"mark": 0, "comp": 1}
_FLOOR = {"app": 0, "lift": 0, "shift": 0, "lam": -1, "id": -1}


def _rank(g: tuple) -> int | None:
    offset = _LABELLED.get(g[0])
    return _FLOOR.get(g[0]) if offset is None else 2 * g[1] + offset


def _prec_gt(f: tuple, g: tuple) -> bool:
    # transitive closure of the generating pairs; see the module docstring
    if f[0] not in _LABELLED:
        return f[0] == "lift" and g[0] == "shift"
    rank = _rank(g)
    return rank is not None and _rank(f) > rank


def lpo_gt(a: Labelled, b: Labelled) -> bool:
    """Lexicographic path order on labelled terms: strict, compatible with
    the precedence above, comparing arguments left to right under equal
    head symbols.

    Comparing `a` with `b` only ever compares a subterm of `a` with a
    subterm of `b`, so each pair is decided once, in a memo keyed by the
    identities of the two subterms, which lives as long as the outer call
    (Loechner, "Things to know when implementing LPO", 2006).  The memo
    misses at most |a|*|b| times.
    """
    return _lpo_gt(a, b, {})


def _lpo_gt(a: Labelled, b: Labelled, memo: dict[tuple[int, int], bool]) -> bool:
    key = id(a), id(b)
    known = memo.get(key)
    if known is not None:
        return known
    memo[key] = gt = _lpo_decide(a, b, memo)
    return gt


def _lpo_decide(a: Labelled, b: Labelled, memo: dict[tuple[int, int], bool]) -> bool:
    if a == b:
        return False
    (fa, aargs), (fb, bargs) = a, b
    for arg in aargs:
        if arg == b or _lpo_gt(arg, b, memo):
            return True
    if _prec_gt(fa, fb):
        return all(_lpo_gt(a, x, memo) for x in bargs)
    if fa == fb:
        for x, y in zip(aargs, bargs):
            if x == y:
                continue
            return _lpo_gt(x, y, memo) and all(_lpo_gt(a, z, memo) for z in bargs)
        return False
    return False

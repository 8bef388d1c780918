"""Termination certificates for the de Bruijn calculi.

Two instruments:

* a pair of multiplicative weights under which every substitution rule is
  lexicographically decreasing (the first weight strictly, except on
  ShiftLift where the second takes over), certifying termination of the
  substitution rules alone;

* a labelling of composition and marked-binder nodes by additive weights,
  together with a lexicographic path order on the labelled signature,
  certifying termination of the marked system.  The precedence makes each
  labelled composition bigger than application, plain binders, lifts, and
  same-label marks, makes lift bigger than shift, and interleaves marks
  and compositions by label:

      ... mark_i < comp_i < mark_{i+1} < comp_{i+1} < ...

  Symbols not forced apart by those generators stay incomparable; the
  order used here is exactly their transitive closure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .debruijn import (DApp, DBoldLam, DBSub, DBTerm, DComp, DId, DLam,
                       DLift, DShift, DSlash, FreeName, One)


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


@dataclass(frozen=True)
class LName:
    name: str


@dataclass(frozen=True)
class LOne:
    pass


@dataclass(frozen=True)
class LApp:
    fn: "LTerm"
    arg: "LTerm"


@dataclass(frozen=True)
class LLam:
    body: "LTerm"


@dataclass(frozen=True)
class LBoldLam:
    body: "LTerm"
    label: int


@dataclass(frozen=True)
class LComp:
    sub: "LSub"
    body: "LTerm"
    label: int


@dataclass(frozen=True)
class LSlash:
    term: "LTerm"


@dataclass(frozen=True)
class LShift:
    pass


@dataclass(frozen=True)
class LId:
    pass


@dataclass(frozen=True)
class LLift:
    sub: "LSub"


LTerm = Union[LName, LOne, LApp, LLam, LBoldLam, LComp]
LSub = Union[LSlash, LShift, LId, LLift]
Labelled = Union[LTerm, LSub]


def label(node: DBTerm | DBSub) -> Labelled:
    """Label every composition and marked binder with the additive weight
    of the whole node; other nodes carry no label."""
    return _label(node)[0]


def _label(node) -> tuple[Labelled, int]:
    match node:
        case FreeName(x):
            return LName(x), 0
        case One():
            return LOne(), 0
        case DApp(f, a):
            lf, wf = _label(f)
            la, wa = _label(a)
            return LApp(lf, la), max(wf, wa)
        case DLam(b):
            lb, wb = _label(b)
            return LLam(lb), wb + 1
        case DBoldLam(b):
            lb, wb = _label(b)
            return LBoldLam(lb, wb + 1), wb + 1
        case DComp(s, b):
            ls, ws = _label(s)
            lb, wb = _label(b)
            return LComp(ls, lb, ws + wb), ws + wb
        case DSlash(b):
            lb, wb = _label(b)
            return LSlash(lb), wb
        case DShift():
            return LShift(), 0
        case DId():
            return LId(), 0
        case DLift(s):
            ls, ws = _label(s)
            return LLift(ls), ws
    raise TypeError(f"not a de Bruijn node: {node!r}")


def _sym(n: Labelled) -> tuple:
    match n:
        case LApp(_, _):
            return ("app",)
        case LLam(_):
            return ("lam",)
        case LBoldLam(_, i):
            return ("mark", i)
        case LComp(_, _, i):
            return ("comp", i)
        case LSlash(_):
            return ("slash",)
        case LShift():
            return ("shift",)
        case LId():
            return ("id",)
        case LLift(_):
            return ("lift",)
        case LOne():
            return ("one",)
        case LName(x):
            return ("name", x)
    raise TypeError(f"not a labelled node: {n!r}")


def _args(n: Labelled) -> tuple[Labelled, ...]:
    match n:
        case LApp(f, a):
            return (f, a)
        case LLam(b):
            return (b,)
        case LBoldLam(b, _):
            return (b,)
        case LComp(s, b, _):
            return (s, b)
        case LSlash(t):
            return (t,)
        case LLift(s):
            return (s,)
    return ()


def _prec_gt(f: tuple, g: tuple) -> bool:
    # transitive closure of the generating pairs; see the module docstring
    match f[0]:
        case "comp":
            i = f[1]
            match g[0]:
                case "comp":
                    return i > g[1]
                case "mark":
                    return g[1] <= i
                case "app" | "lam" | "lift" | "shift" | "id":
                    return True
            return False
        case "mark":
            i = f[1]
            match g[0]:
                case "mark":
                    return i > g[1]
                case "comp":
                    return i >= g[1] + 1
                case "lam" | "id":
                    return True
                case "app" | "lift" | "shift":
                    return i >= 1
            return False
        case "lift":
            return g[0] == "shift"
    return False


def lpo_gt(a: Labelled, b: Labelled) -> bool:
    """Lexicographic path order on labelled terms: strict, compatible with
    the precedence above, comparing arguments left to right under equal
    head symbols."""
    if a == b:
        return False
    for arg in _args(a):
        if arg == b or lpo_gt(arg, b):
            return True
    fa, fb = _sym(a), _sym(b)
    bargs = _args(b)
    if _prec_gt(fa, fb):
        return all(lpo_gt(a, x) for x in bargs)
    if fa == fb:
        aargs = _args(a)
        for x, y in zip(aargs, bargs):
            if x == y:
                continue
            return lpo_gt(x, y) and all(lpo_gt(a, z) for z in bargs)
        return False
    return False

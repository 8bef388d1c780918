r"""The reduction engine: redex enumeration, rule application, strategies.

Fourteen rules.  Beta fires explicit substitution; nine propagation rules
push a substitution through the term; W discards an irrelevant weakening;
Alpha renames a bound variable, and is restricted to binders whose variable
is free in the abstraction itself (the fresh name is drawn from a fixed
deterministic order, so traces are reproducible).

    Beta        (\x. A) B        ->  [B/x] * A
    App         S * A B          ->  (S * A) (S * B)
    Lambda      S * \x. A        ->  \x. S^x * A
    Var         [B/x] * x        ->  B
    Shift       [B/x] * W x * A  ->  A
    ShiftP      [B/x] * z        ->  z               (x != z)
    IdVar       {y x} * x        ->  y
    IdShift     {y x} * W x * A  ->  W y * A
    IdShiftP    {y x} * z        ->  W y * z         (x != z)
    LiftVar     S^x * x          ->  x
    LiftShift   S^x * W x * A    ->  W x * S * A
    LiftShiftP  S^x * z          ->  W x * S * z     (x != z)
    W           W x * z          ->  z               (x != z)
    Alpha       \x. A            ->  \y. {y x} * A   (x free in \x. A,
                                                      y fresh for it)

Redexes are reducible at any position reachable by descending into lambda
bodies, both application children, both composition children, slash bodies,
and lift inners (the ``CHILDREN`` tables of :mod:`exsub.terms`).
Enumeration is deterministic: outside-in, left to right.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterator, Optional, Union

from .contexts import Context, ctx_member
from .freevars import _Memo, _fv
from .syntax import print_term
from .terms import (App, Comp, InvalidRedex, Lam, Lift, Node, Path, Rename,
                    Slash, Term, Var, VarRef, Weak, path_indices, replace_at,
                    subterm_at)

BETA = "Beta"
APP = "App"
LAMBDA = "Lambda"
VAR = "Var"
SHIFT = "Shift"
SHIFTP = "ShiftP"
IDVAR = "IdVar"
IDSHIFT = "IdShift"
IDSHIFTP = "IdShiftP"
LIFTVAR = "LiftVar"
LIFTSHIFT = "LiftShift"
LIFTSHIFTP = "LiftShiftP"
W = "W"
ALPHA = "Alpha"

ALL_RULES = (BETA, APP, LAMBDA, VAR, SHIFT, SHIFTP, IDVAR, IDSHIFT, IDSHIFTP,
             LIFTVAR, LIFTSHIFT, LIFTSHIFTP, W, ALPHA)

FULL = frozenset(ALL_RULES)
SIGMA = FULL - {BETA, ALPHA}
SIGMA_ALPHA = FULL - {BETA}

RULE_SETS = {"sigma": SIGMA, "sigma-alpha": SIGMA_ALPHA, "full": FULL}

# lo picks the first redex in enumeration order, ri the last, an integer k
# the k-th (for harness exploration).
Strategy = Union[str, int]


_FRESH_HEAD = ("z", "y", "x", "w", "v", "u", "t", "s")


def fresh_var(avoid: Context, x: Var) -> Var:
    """First name in the fixed order z y x w v u t s a1 a2 ... that differs
    from `x` and does not occur in `avoid`."""
    for c in _FRESH_HEAD:
        if c != x and not ctx_member(c, avoid):
            return c
    for i in itertools.count(1):
        c = f"a{i}"
        if c != x and not ctx_member(c, avoid):
            return c
    raise AssertionError("unreachable")


def _sigma_rule(s, b) -> str | None:
    """The unique propagation rule matching `Comp(s, b)` at the root, if any.

    The left-hand shapes are pairwise disjoint: the body shape picks the
    column (application, lambda, variable, weakened body) and the
    substitution the row, with the primed variants split off by the side
    condition on names.
    """
    match b:
        case App(_, _):
            return APP
        case Lam(_, _):
            return LAMBDA
        case VarRef(z):
            match s:
                case Slash(_, x):
                    return VAR if x == z else SHIFTP
                case Rename(_, x):
                    return IDVAR if x == z else IDSHIFTP
                case Lift(_, x):
                    return LIFTVAR if x == z else LIFTSHIFTP
                case Weak(x):
                    return W if x != z else None
        case Comp(Weak(w), _):
            match s:
                case Slash(_, x) if x == w:
                    return SHIFT
                case Rename(_, x) if x == w:
                    return IDSHIFT
                case Lift(_, x) if x == w:
                    return LIFTSHIFT
    return None


def _iter_redexes(t: Node, rules: frozenset[str], path: Path,
                  memo: _Memo) -> Iterator[tuple[Path, str]]:
    # the root rule: the left-hand shapes of Beta, Alpha and the propagation
    # rules are pairwise disjoint, so at most one matches
    match t:
        case App(Lam(_, _), _) if BETA in rules:
            yield path, BETA
        case Lam(x, _) if ALPHA in rules:
            c = _fv(t, memo)
            if c is not None and ctx_member(x, c):
                yield path, ALPHA
        case Comp(s, b):
            r = _sigma_rule(s, b)
            if r is not None and r in rules:
                yield path, r
    for sel, f in t.CHILDREN:
        yield from _iter_redexes(getattr(t, f), rules, path + (sel,), memo)


# The scan above descends into substitutions too; the old name stays bound
# for the probes of perfbench/tracer.py.
_iter_sub_redexes = _iter_redexes


def find_redexes(t: Term, rules: frozenset[str] = FULL, *,
                 _memo: _Memo | None = None) -> list[tuple[Path, str]]:
    """Every position where a rule's left-hand shape matches, outside-in,
    left to right.  Alpha matches a binder `\\x. A` only when the term's
    free-variable context is defined and contains x."""
    return list(_iter_redexes(t, rules, (), {} if _memo is None else _memo))


def _contract(t: Term, rule: str, memo: _Memo) -> tuple[Term, Optional[Var]]:
    match rule, t:
        case "Beta", App(Lam(x, a), b):
            return Comp(Slash(b, x), a), None
        case "App", Comp(s, App(a, b)):
            return App(Comp(s, a), Comp(s, b)), None
        case "Lambda", Comp(s, Lam(x, a)):
            return Lam(x, Comp(Lift(s, x), a)), None
        case "Var", Comp(Slash(b, x), VarRef(z)) if x == z:
            return b, None
        case "Shift", Comp(Slash(_, x), Comp(Weak(w), a)) if x == w:
            return a, None
        case "ShiftP", Comp(Slash(_, x), VarRef(z)) if x != z:
            return VarRef(z), None
        case "IdVar", Comp(Rename(y, x), VarRef(z)) if x == z:
            return VarRef(y), None
        case "IdShift", Comp(Rename(y, x), Comp(Weak(w), a)) if x == w:
            return Comp(Weak(y), a), None
        case "IdShiftP", Comp(Rename(y, x), VarRef(z)) if x != z:
            return Comp(Weak(y), VarRef(z)), None
        case "LiftVar", Comp(Lift(_, x), VarRef(z)) if x == z:
            return VarRef(x), None
        case "LiftShift", Comp(Lift(s, x), Comp(Weak(w), a)) if x == w:
            return Comp(Weak(x), Comp(s, a)), None
        case "LiftShiftP", Comp(Lift(s, x), VarRef(z)) if x != z:
            return Comp(Weak(x), Comp(s, VarRef(z))), None
        case "W", Comp(Weak(x), VarRef(z)) if x != z:
            return VarRef(z), None
        case "Alpha", Lam(x, a):
            c = _fv(t, memo)
            if c is None or not ctx_member(x, c):
                raise InvalidRedex(f"Alpha does not apply: {x} is not free in the binder")
            y = fresh_var(c, x)
            return Lam(y, Comp(Rename(y, x), a)), y
    raise InvalidRedex(f"rule {rule} does not match {print_term(t)}")


def apply_rule(t: Term, at: Path, rule: str, *,
               _memo: _Memo | None = None) -> tuple[Term, Optional[Var]]:
    """Contract the redex for `rule` at `at`; returns the result and, for
    Alpha, the fresh variable chosen."""
    memo = {} if _memo is None else _memo
    sub = subterm_at(t, at)
    new, fresh = _contract(sub, rule, memo)
    return replace_at(t, at, new), fresh


def step(t: Term, rules: frozenset[str] = FULL, strategy: Strategy = "lo", *,
         _memo: _Memo | None = None) -> Optional[tuple[Term, str, Path, Optional[Var]]]:
    """One reduction step under the strategy, or None when no redex exists."""
    memo = {} if _memo is None else _memo
    if strategy == "lo":
        picked = next(_iter_redexes(t, rules, (), memo), None)
    else:
        redexes = find_redexes(t, rules, _memo=memo)
        if not redexes:
            picked = None
        elif strategy == "ri":
            picked = redexes[-1]
        elif isinstance(strategy, int):
            picked = redexes[strategy] if 0 <= strategy < len(redexes) else None
        else:
            raise ValueError(f"unknown strategy: {strategy!r}")
    if picked is None:
        return None
    path, rule = picked
    new, fresh = apply_rule(t, path, rule, _memo=memo)
    return new, rule, path, fresh


@dataclass(frozen=True)
class TraceStep:
    rule: str
    at: Path
    fresh: Optional[Var]
    result: Term


@dataclass(frozen=True)
class Trace:
    initial: Term
    steps: tuple[TraceStep, ...]

    def to_json(self) -> dict:
        return {
            "initial": print_term(self.initial),
            "steps": [
                {
                    "ruleName": s.rule,
                    "pathAsChildIndices": path_indices(s.at),
                    "freshVariableOrNull": s.fresh,
                    "printedTerm": print_term(s.result),
                }
                for s in self.steps
            ],
        }

    def to_text(self) -> str:
        lines = [print_term(self.initial)]
        for s in self.steps:
            p = ".".join(str(i) for i in path_indices(s.at)) or "-"
            lines.append(f"{s.rule}\t{p}\t{s.fresh or '-'}\t{print_term(s.result)}")
        return "\n".join(lines)

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2)


def normalize(t: Term, rules: frozenset[str] = FULL, strategy: Strategy = "lo",
              fuel: int = 10000) -> tuple[Term, Trace, bool]:
    """Iterate `step` until no redex remains or `fuel` steps were taken.

    Returns the final term, the trace, and an exhaustion flag.  Exhaustion
    is a normal outcome for the full rule set (untyped Beta); the
    propagation rules with Alpha terminate on well-formed terms.
    """
    if fuel <= 0:
        raise ValueError("fuel must be positive")
    memo: _Memo = {}
    steps: list[TraceStep] = []
    cur = t
    for _ in range(fuel):
        r = step(cur, rules, strategy, _memo=memo)
        if r is None:
            return cur, Trace(t, tuple(steps)), False
        cur, rule, path, fresh = r
        steps.append(TraceStep(rule, path, fresh, cur))
    exhausted = step(cur, rules, strategy, _memo=memo) is not None
    return cur, Trace(t, tuple(steps)), exhausted

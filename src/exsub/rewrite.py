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
and lift inners (the ``CHILDREN`` tables of :mod:`exsub.terms`).  A redex
is reported with its path, its child positions from the root down.
Enumeration is deterministic: outside-in, left to right.

The lo strategy contracts the first redex in that order, ri the last and
index:K the K-th.  Under lo, one walk of the term
(:class:`exsub.terms.LeftmostOutermost`) serves every step of a
normalization and resumes next to the last contraction; ri and index:K
list every redex of the whole term at each step.
"""

from __future__ import annotations

import itertools
import json
from json.encoder import encode_basestring_ascii as _quote

from .contexts import Context
from .freevars import fv
from .syntax import LengthMemo, child_extent, print_spliced, print_term
from .terms import (UNSETTLED, App, Comp, InvalidRedex, Lam, LeftmostOutermost, Lift, Node,
                    Path, Rename, Slash, Term, Value, Var, VarRef, Weak, refresh, replace_at,
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
Strategy = str | int


_FRESH_HEAD = ("z", "y", "x", "w", "v", "u", "t", "s")


def fresh_var(avoid: Context, x: Var) -> Var:
    """First name in the fixed order z y x w v u t s a1 a2 ... that differs
    from `x` and does not occur in `avoid`."""
    for c in _FRESH_HEAD:
        if c != x and c not in avoid:
            return c
    for i in itertools.count(1):
        c = f"a{i}"
        if c != x and c not in avoid:
            return c
    raise AssertionError("unreachable")


# A composition's body of the form W w * A, the shape the Shift rules read.
_WEAKENED = "W w * A"

# The left-hand side of each rule, as the key its root has: the class of an
# abstraction; the classes of an application and of its function; or, for a
# composition S * A, the class of S, the shape of A (its class, or
# _WEAKENED), and whether the variable of S (x in [B/x], {y x}, S^x, W x)
# equals the name of A (z in a variable z, w in W w * A).  An application or
# abstraction body has no name, so that comparison is False.
_LHS: dict[str, tuple[tuple, ...]] = {
    BETA: ((App, Lam),),
    ALPHA: ((Lam,),),
    APP: tuple((s, App, False) for s in (Slash, Rename, Lift, Weak)),
    LAMBDA: tuple((s, Lam, False) for s in (Slash, Rename, Lift, Weak)),
    VAR: ((Slash, VarRef, True),),
    SHIFT: ((Slash, _WEAKENED, True),),
    SHIFTP: ((Slash, VarRef, False),),
    IDVAR: ((Rename, VarRef, True),),
    IDSHIFT: ((Rename, _WEAKENED, True),),
    IDSHIFTP: ((Rename, VarRef, False),),
    LIFTVAR: ((Lift, VarRef, True),),
    LIFTSHIFT: ((Lift, _WEAKENED, True),),
    LIFTSHIFTP: ((Lift, VarRef, False),),
    W: ((Weak, VarRef, False),),
}

# The rule at each key.  No key has two rules, so the left-hand shapes are
# pairwise disjoint: the body shape picks the column, the substitution the
# row, and the comparison of names splits off the primed variants.  A key
# that is missing matches no rule (W x * x, W x * W w * A, and the Shift
# rules when x differs from w).
_SHAPE_RULE: dict[tuple, str] = {key: r for r, keys in _LHS.items() for key in keys}
assert len(_SHAPE_RULE) == sum(map(len, _LHS.values()))

# How many levels below its root a contraction can change what `_shape`
# reads at a node of each class.  It reads the class of an application's
# function, and a composition's body down to the substitution of W w * A;
# no rule has its root at a substitution, so no contraction lands there,
# and a composition reaches 1.  An abstraction reaches 0: a step below it
# only shrinks the free-variable context that Alpha reads, so a binder that
# answered None still does, and one that answered `UNSETTLED` is asked
# again anyway.  After a step, the lo walk asks a node above the contractum
# again only within its reach (`LeftmostOutermost`).
_REACH: dict[type, int] = {App: 1, Comp: 1, Lam: 0, Slash: 0, Lift: 0}


def _shape(t: Node) -> tuple:
    """The key of `t`'s root in `_SHAPE_RULE`."""
    cls = type(t)
    if cls is Comp:
        s, b = t.sub, t.body
        shape = type(b)
        if shape is VarRef:
            name = b.name
        elif shape is Comp and type(b.sub) is Weak:
            shape, name = _WEAKENED, b.sub.var
        else:
            return type(s), shape, False
        cls = type(s)
        return cls, shape, (s.old if cls is Rename else s.var) == name
    if cls is App:
        return cls, type(t.fn)
    return (cls,)


def _rule_finder(rules: frozenset[str]) -> Callable[[Node], str | None]:
    """The function that the walks and scans call at every node: it names
    the rule of `rules` whose left-hand side matches at the root of the
    node, or returns None (always at a node without children).  It costs
    one lookup in `_SHAPE_RULE`, read afresh so that an edit of the table
    takes effect at once, and for Alpha a look at the binder's
    free-variable context, which `fv` keeps on the binder.  A binder whose
    context is undefined answers `UNSETTLED`: a step below it may make that
    context defined, and the binder an Alpha redex (a defined context only
    shrinks).  Each call makes a new function, so the marks that a walk
    leaves with it on finished subtrees (`LeftmostOutermost`) are its own."""

    def rule_at(t: Node) -> str | None:
        r = _SHAPE_RULE.get(_shape(t))
        if r is None or r not in rules:
            return None
        if r is ALPHA:
            c = fv(t)
            if c is None:
                return UNSETTLED
            return r if t.var in c else None
        return r
    return rule_at


def _iter_redexes(t: Node, rules: frozenset[str]) -> Iterator[tuple[Path, str]]:
    rule_at = _rule_finder(rules)
    stack = [(t, ())]
    while stack:
        node, p = stack.pop()
        r = rule_at(node)
        if r:
            yield p, r
        i = len(node.CHILDREN)
        while i:
            i -= 1
            stack.append((getattr(node, node.CHILDREN[i]), p + (i,)))


# The scan above descends into substitutions too; the old name stays bound
# for the probes of perfbench/tracer.py.
_iter_sub_redexes = _iter_redexes


def find_redexes(t: Term, rules: frozenset[str] = FULL) -> list[tuple[Path, str]]:
    """Every position where a rule's left-hand shape matches, outside-in,
    left to right.  Alpha matches a binder `\\x. A` only when the term's
    free-variable context is defined and contains x."""
    return list(_iter_redexes(t, rules))


def _alpha(t: Lam) -> Lam:
    # In a walk, the rule lookup has just put the binder's context in its slot.
    c = fv(t) if t.fv is None else t.fv
    if not c or t.var not in c:
        raise InvalidRedex(f"Alpha does not apply: {t.var} is not free in the binder")
    y = fresh_var(c, t.var)
    return Lam(y, Comp(Rename(y, t.var), t.body))


# The contractum of each rule, from a redex whose root has the rule's key.
_CONTRACT: dict[str, Callable[[Node], Term]] = {
    BETA: lambda t: Comp(Slash(t.arg, t.fn.var), t.fn.body),
    APP: lambda t: App(Comp(t.sub, t.body.fn), Comp(t.sub, t.body.arg)),
    LAMBDA: lambda t: Lam(t.body.var, Comp(Lift(t.sub, t.body.var), t.body.body)),
    VAR: lambda t: t.sub.term,
    SHIFT: lambda t: t.body.body,
    SHIFTP: lambda t: t.body,
    IDVAR: lambda t: VarRef(t.sub.new),
    IDSHIFT: lambda t: Comp(Weak(t.sub.new), t.body.body),
    IDSHIFTP: lambda t: Comp(Weak(t.sub.new), t.body),
    LIFTVAR: lambda t: t.body,
    LIFTSHIFT: lambda t: Comp(t.body.sub, Comp(t.sub.sub, t.body.body)),   # W x
    LIFTSHIFTP: lambda t: Comp(Weak(t.sub.var), Comp(t.sub.sub, t.body)),
    W: lambda t: t.body,
    ALPHA: _alpha,
}


# The text of a contractum that reuses parts of its redex, by rule: a
# recipe takes the redex `t`, whose text spans `start` to `end` of `text`,
# the contractum and the trace's memo of printed lengths.  It checks the
# classes of the nodes that it reads, and by identity that the contractum
# holds each reused part where the recipe puts it; if either check fails,
# it answers None and the step is printed in full.  Else it cuts each part
# out of `text` once, where `child_extent` places it by the class of the
# node above it, and writes the contractum's text in one f-string, reading
# the names from the contractum.  A node that the recipe builds around
# reused parts, below the contractum's root, has its printed width put in
# the memo as the sum of extents that the recipe holds (Beta's `[B/x]`,
# App's `S * A` and `S * B`, Lambda's `S^x` and `S^x * A`, and the inner
# `S * A` of LiftShift and LiftShiftP), so a later step does not measure
# it; `print_spliced` records the root's.  The rules without a recipe reuse
# no part with children (ShiftP, IdVar, LiftVar and W give a variable,
# IdShiftP `W y * z`).

def _halves(t: Node, start: int, end: int, memo: LengthMemo) -> tuple[int, int, int, int]:
    """Where the texts of both children of `t`, an application or a
    composition, start and end: the second places the first."""
    _, i, j = child_extent(t, 1, start, end, memo)
    _, k, m = child_extent(t, 0, start, end, memo, (i, j))
    return k, m, i, j


def _beta_text(t, new, text, start, end, memo):        # (\x. A) B -> [B/x] * A
    if (type(t) is App and type(f := t.fn) is Lam and type(new) is Comp
            and type(s := new.sub) is Slash and s.term is t.arg and new.body is f.body):
        k, m, i, j = _halves(t, start, end, memo)
        _, k, m = child_extent(f, 0, k, m, memo)
        memo[id(s)] = s, j - i + len(s.var) + 3
        return f"[{text[i:j]}/{s.var}] * {text[k:m]}"
    return None


def _alpha_text(t, new, text, start, end, memo):       # \x. A -> \y. {y x} * A
    if (type(t) is Lam and type(new) is Lam and type(b := new.body) is Comp
            and type(r := b.sub) is Rename and b.body is t.body):
        _, i, j = child_extent(t, 0, start, end, memo)
        return f"\\{new.var}. {{{r.new} {r.old}}} * {text[i:j]}"
    return None


def _app_text(t, new, text, start, end, memo):         # S * A B -> (S * A) (S * B)
    if (type(t) is Comp and type(b := t.body) is App and type(new) is App
            and type(f := new.fn) is Comp and type(a := new.arg) is Comp
            and f.sub is t.sub is a.sub and f.body is b.fn and a.body is b.arg):
        k, m, i, j = _halves(t, start, end, memo)
        p, q, i, j = _halves(b, i, j, memo)
        memo[id(f)] = f, m - k + 3 + q - p
        memo[id(a)] = a, m - k + 3 + j - i
        s = text[k:m]
        return f"({s} * {text[p:q]}) ({s} * {text[i:j]})"
    return None


def _lambda_text(t, new, text, start, end, memo):      # S * \x. A -> \x. S^x * A
    if (type(t) is Comp and type(lam := t.body) is Lam and type(new) is Lam
            and type(b := new.body) is Comp and type(s := b.sub) is Lift
            and s.sub is t.sub and b.body is lam.body):
        k, m, i, j = _halves(t, start, end, memo)
        _, i, j = child_extent(lam, 0, i, j, memo)
        n = m - k + len(s.var) + 1
        memo[id(s)] = s, n
        memo[id(b)] = b, n + 3 + j - i
        return f"\\{new.var}. {text[k:m]}^{s.var} * {text[i:j]}"
    return None


def _var_text(t, new, text, start, end, memo):         # [B/x] * x -> B
    if type(t) is Comp and type(s := t.sub) is Slash and new is s.term:
        _, i, j = child_extent(t, 0, start, end, memo)
        _, i, j = child_extent(s, 0, i, j, memo)
        return text[i:j]
    return None


def _shift_text(t, new, text, start, end, memo):       # [B/x] * W x * A -> A
    if type(t) is Comp and type(b := t.body) is Comp and new is b.body:
        _, i, j = child_extent(t, 1, start, end, memo)
        _, i, j = child_extent(b, 1, i, j, memo)
        return text[i:j]
    return None


def _idshift_text(t, new, text, start, end, memo):     # {y x} * W x * A -> W y * A
    if type(new) is Comp and type(w := new.sub) is Weak:
        a = _shift_text(t, new.body, text, start, end, memo)
        if a is not None:
            return f"W {w.var} * {a}"
    return None


def _liftshift_text(t, new, text, start, end, memo):   # S^x * W x * A -> W x * S * A
    if (type(t) is Comp and type(lift := t.sub) is Lift and type(b := t.body) is Comp
            and type(new) is Comp and type(w := new.sub) is Weak and type(c := new.body) is Comp
            and c.sub is lift.sub and c.body is b.body):
        k, m, i, j = _halves(t, start, end, memo)
        _, k, m = child_extent(lift, 0, k, m, memo)
        _, i, j = child_extent(b, 1, i, j, memo)
        memo[id(c)] = c, m - k + 3 + j - i
        return f"W {w.var} * {text[k:m]} * {text[i:j]}"
    return None


def _liftshiftp_text(t, new, text, start, end, memo):  # S^x * z -> W x * S * z
    if (type(t) is Comp and type(lift := t.sub) is Lift and type(new) is Comp
            and type(w := new.sub) is Weak and type(c := new.body) is Comp
            and c.sub is lift.sub and c.body is t.body):
        k, m, i, j = _halves(t, start, end, memo)
        _, k, m = child_extent(lift, 0, k, m, memo)
        memo[id(c)] = c, m - k + 3 + j - i
        return f"W {w.var} * {text[k:m]} * {text[i:j]}"
    return None


_SPLICE: dict[str, Callable[[Node, Node, str, int, int, LengthMemo], str | None]] = {
    BETA: _beta_text, ALPHA: _alpha_text, APP: _app_text, LAMBDA: _lambda_text,
    VAR: _var_text, SHIFT: _shift_text, IDSHIFT: _idshift_text,
    LIFTSHIFT: _liftshift_text, LIFTSHIFTP: _liftshiftp_text,
}


def _contract(t: Term, rule: str) -> tuple[Term, Var | None]:
    if _SHAPE_RULE.get(_shape(t)) != rule:
        raise InvalidRedex(f"rule {rule} does not match {print_term(t)}")
    new = _CONTRACT[rule](t)
    return new, (new.var if rule == ALPHA else None)


def apply_rule(t: Term, at: Path, rule: str) -> tuple[Term, Var | None]:
    """Contract the redex for `rule` at `at`; returns the result and, for
    Alpha, the fresh variable chosen.  Raises InvalidRedex when the rule
    does not match there."""
    if not at:
        return _contract(t, rule)
    new, fresh = _contract(subterm_at(t, at), rule)
    return replace_at(t, at, new), fresh


class TraceStep:
    """One reduction step: the rule, the path of its redex, the fresh name
    Alpha chose (else None), and the term after the step.

    A step that the engine made, under any strategy, holds the redex and
    the contractum; in a trace of `normalize` it also holds the step before
    it (or the initial term), and in the engine's stream none.  A linked lo
    step does not hold its result: that is `replace_at(previous result, at,
    contractum)`, built when read.  The replay rebuilds the spine above the
    redex and shares every other subtree, as an eager rebuild does, so a
    normalization that reads only its normal form never builds the
    intermediate terms.  A read that replays this step alone releases the
    result it replayed from, so a reader that goes in order holds one
    intermediate term, not one per step; a longer replay keeps every
    result it builds, so reading in reverse or at random builds each one
    once.  A replayed step keeps its links to the step before and to its
    contractum, and a released result is rebuilt from the nearest earlier
    one when it is read again.  An ri or index:K step holds the term its
    rescan built and never releases it; reading it drops its links.  Any
    read drops the step's redex; the trace printer then finds it by the
    step's path, if the step is still linked (see `Trace._printed`).
    A step of the engine's stream under lo keeps no term: reading its
    result raises ValueError, and the reducer's `root` is the term after it.
    """

    __slots__ = ("rule", "at", "fresh", "_result", "_before", "_redex", "_contractum")

    def __init__(self, rule: str, at: Path, fresh: Var | None, result: Term):
        self.rule, self.at, self.fresh = rule, at, fresh
        self._result, self._before, self._redex, self._contractum = result, None, None, None

    @property
    def result(self) -> Term:
        # The steps after the nearest result kept are replayed oldest
        # first, in a loop, so that reading the last step of a long trace
        # first does not recurse once per step.
        pending, base = [], self
        while isinstance(base, TraceStep) and base._result is None:
            if base._before is None:
                raise ValueError("a step of the engine's stream keeps no term; "
                                 "read the reducer's root instead")
            pending.append(base)
            base = base._before
        term = base._result if isinstance(base, TraceStep) else base
        for p in reversed(pending):
            term = p._result = replace_at(term, p.at, p._contractum)
            p._redex = None
        if not pending:
            if self._redex is not None:     # made with its result: read for the first time
                self._before = self._redex = self._contractum = None
        elif (len(pending) == 1 and isinstance(base, TraceStep) and base._redex is None
              and base._contractum is not None):    # replayed, so it can be again
            base._result = None
        return self._result

    def _key(self) -> tuple:
        return self.rule, self.at, self.fresh, self.result

    def __eq__(self, other) -> bool:
        if not isinstance(other, TraceStep):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        try:
            result = repr(self.result)
        except ValueError:                  # a step of the engine's stream
            result = "<not kept>"
        return (f"TraceStep(rule={self.rule!r}, at={self.at!r}, fresh={self.fresh!r}, "
                f"result={result})")


def _shared(a: Path, b: Path) -> int:
    """The length of the longest common prefix of two paths.  It compares
    slices, not elements: first the shorter path whole, then the shorter
    path without its last position (consecutive lo paths mostly answer
    one of these two), and only then a binary search."""
    m = min(len(a), len(b))
    if a[:m] == b[:m]:
        return m
    m -= 1
    if a[:m] == b[:m]:
        return m
    top = 0             # a[:top] == b[:top] and a[:m] != b[:m]
    while m - top > 1:
        mid = (top + m) // 2
        if a[:mid] == b[:mid]:
            top = mid
        else:
            m = mid
    return top


class Trace(Value):
    initial: Term
    steps: tuple[TraceStep, ...]

    def _printed(self) -> Iterator[tuple[TraceStep | None, str, int]]:
        """The printed initial term, paired with None, then each step with
        its printed result; `steps` is read once, and may be a stream.  The
        third item is how many positions the step's path shares with the
        path before it, or fewer: 0 for the initial term, for a step printed
        in full and for the step after one, as the zipper then knows no
        path before.

        A step's text is the text before it with the redex's text replaced
        by the contractum's (`syntax.print_spliced`).  A zipper over the
        current term, as in `LeftmostOutermost`, holds its nodes down the
        last step's path, where each one's text starts, and how much text
        follows it, which a step below it does not change.  A step walks
        down from where its path leaves that one (`_shared`), and a node
        above the last contraction, still holding the old child, is rebuilt
        only once a path leaves the zipper below it (`terms.refresh`, as in
        the walk); so a lo step costs the same at any depth, and printing
        builds no result.  A redex on the last path needs no rebuild at
        all: the contractum takes its frame unread, and the step hands the
        redex.  Walking down places each child by the literal text of its
        parent's class (`syntax.child_extent`), which measures
        only an application's function or a composition's substitution,
        and not even that at a turn, where the path leaves the last one at
        a node with two children: the extent of the child that the zipper
        holds places its sibling.  The zipper alone holds the
        redex's extent: it hands the splice where the redex's text starts
        and ends, and takes back the contractum's.  The contractum's text
        comes from the rule's recipe in `_SPLICE`, read at every step, which
        cuts the parts of the redex that the contractum reuses out of the
        text before; a contractum without children, or one that its rule's
        recipe does not answer for, is printed in full.  The zipper takes
        in the engine's own redex, whose parts the contractum holds by
        identity, in a step linked to the one before it or to none.  A step
        whose result was read holds no redex; linked to the one before it,
        it keeps its contractum, and its redex is the zipper's node at its
        path, rebuilt first (`refresh`) even on the last path, so that the
        recipe cuts the parts of the live term.  Any other step (one linked
        elsewhere, built by hand, or read after its links were dropped) is
        printed in full.

        One memo of printed lengths serves the whole trace.  The recipes put
        in it the widths of the nodes they build, which they know without
        measuring, so a step rarely measures what the step before wrote.
        Its entries are checked by identity, and it is cleared when it holds
        more entries than the text has characters, so it follows the live
        term instead of growing with the trace.
        """
        memo: LengthMemo = {}
        before = self.initial
        text = print_term(before)
        yield None, text, 0
        nodes, starts, tails, last = [before], [0], [0], ()
        for s in self.steps:
            old, new = s._redex, s._contractum
            if new is None or not (s._before is before or s._before is None and old is not None):
                text = print_term(s.result)
                nodes, starts, tails, last, m = [s.result], [0], [0], (), 0
            else:
                at = s.at
                m = _shared(at, last)
                if m < len(at) or old is None:
                    refresh(nodes, last, m)
                n, other = len(text), None
                if m < len(at) and m < len(last):       # a turn: the old child places the new
                    other = starts[m + 1], n - tails[m + 1]
                del nodes[m + 1:], starts[m + 1:], tails[m + 1:]
                for i in at[m:]:
                    c, start, end = child_extent(nodes[-1], i, starts[-1], n - tails[-1], memo,
                                                 other)
                    nodes.append(c)
                    starts.append(start)
                    tails.append(n - end)
                    other = None
                start, end = starts[-1], n - tails[-1]
                if old is None:         # read, and replayed: the zipper holds the redex
                    old = nodes[-1]
                recipe = _SPLICE.get(s.rule) if new.CHILDREN else None
                out = None if recipe is None else recipe(old, new, text, start, end, memo)
                text, starts[-1], end = print_spliced(
                    text, start, end, nodes[-2] if at else None, at[-1] if at else 0, old, new,
                    out, memo)
                tails[-1] = len(text) - end
                nodes[-1], last = new, at
            if len(memo) > len(text):
                memo.clear()
            yield s, text, m
            before = s

    def pieces(self, form: str) -> Iterator[str]:
        """The trace as `form`, "text" or "json", one piece per step, each
        written as soon as it is printed.  JSON comes from templates: with an
        indent, `json` falls back to its pure-Python encoder.  A path's text
        is formatted from where it leaves the path before, as the printer
        found it (`_path_texts`), and the JSON text of each rule name is
        kept."""
        if form not in ("text", "json"):
            raise ValueError(f"unknown trace form: {form!r}")
        texts = self._printed()
        if form == "text":
            path_text = _path_texts(".")
            yield next(texts)[1]
            for s, text, m in texts:
                yield f"\n{s.rule}\t{path_text(s.at, m) or '-'}\t{s.fresh or '-'}\t{text}"
            return
        path_text = _path_texts(",\n        ")
        yield '{\n  "initial": %s,\n  "steps": [' % _quote(next(texts)[1])
        sep = ""
        for s, text, m in texts:
            yield _STEP_JSON % (
                sep, _QUOTED_RULES.get(s.rule) or _quote(s.rule),
                "[\n        %s\n      ]" % path_text(s.at, m) if s.at else "[]",
                "null" if s.fresh is None else _quote(s.fresh), _quote(text))
            sep = ","
        yield "\n  ]\n}" if sep else "]\n}"

    def to_json(self) -> dict:
        return json.loads(self.dumps())

    def to_text(self) -> str:
        return "".join(self.pieces("text"))

    def dumps(self) -> str:
        """`json.dumps(self.to_json(), indent=2)`."""
        return "".join(self.pieces("json"))


def _path_texts(sep: str) -> Callable[[Path, int], str]:
    """A function from each path of a trace, in turn, and the number of
    positions it shares with the path before, or fewer, to its positions
    joined by `sep`.  Consecutive lo paths mostly share all but their last
    one or two positions, so only the positions after that shared prefix
    are formatted: the text of every prefix of the last path is kept."""
    prefixes = [""]     # prefixes[j]: the text of the first j positions of the last path

    def text(at: Path, m: int) -> str:
        del prefixes[m + 1:]
        t = prefixes[m]
        for i in at[m:]:
            t = f"{t}{sep}{i}" if t else str(i)
            prefixes.append(t)
        return t
    return text


_QUOTED_RULES = {r: _quote(r) for r in ALL_RULES}

_STEP_JSON = ('%s\n    {\n      "ruleName": %s,\n      "pathAsChildIndices": %s,'
              '\n      "freshVariableOrNull": %s,\n      "printedTerm": %s\n    }')


class _Rescan:
    """The ri and index:K strategies, behind the interface of
    `LeftmostOutermost`: each step lists every redex of the whole term."""

    def __init__(self, t: Term, rules: frozenset[str], strategy: Strategy):
        self.root = t
        self._rules, self._strategy = rules, strategy
        self._found: tuple[Path, str] | None = None

    def next_redex(self) -> tuple[Path, str] | None:
        if self._found is None:
            redexes = list(_iter_redexes(self.root, self._rules))
            k = self._strategy
            if k == "ri":
                self._found = redexes[-1] if redexes else None
            else:
                self._found = redexes[k] if k < len(redexes) else None
        return self._found

    @property
    def focus(self) -> Term:
        return subterm_at(self.root, self._found[0])

    def replace(self, new: Term) -> Term:
        self.root = replace_at(self.root, self._found[0], new)
        self._found = None
        return self.root


def _stream(t: Term, rules: frozenset[str], strategy: Strategy
            ) -> tuple[LeftmostOutermost | _Rescan, Iterator[TraceStep]]:
    """The reducer of `t` under the strategy, whose `root` is the current
    term, and the stream of its steps.  Each step is made when it is asked
    for and is linked to no step before it, so the stream keeps none."""
    if strategy not in ("lo", "ri") and not (type(strategy) is int and strategy >= 0):
        raise ValueError(f"unknown strategy: {strategy!r}")
    red = (LeftmostOutermost(t, _rule_finder(rules), _REACH) if strategy == "lo"
           else _Rescan(t, rules, strategy))
    return red, _steps(red)


def _steps(red: LeftmostOutermost | _Rescan) -> Iterator[TraceStep]:
    """The steps of `red`, each made when it is asked for.  Its rule lookup
    has just matched the rule at the redex, so the step calls the rule's
    entry in `_CONTRACT` itself, unchecked, and Alpha's fresh name is the
    contractum's variable.  The table is read at each step, so an edit of
    it takes effect at once."""
    while (picked := red.next_redex()) is not None:
        path, rule = picked
        redex = red.focus
        new = _CONTRACT[rule](redex)
        s = TraceStep(rule, path, new.var if rule == ALPHA else None, red.replace(new))
        s._redex, s._contractum = redex, new
        yield s


def step(t: Term, rules: frozenset[str] = FULL,
         strategy: Strategy = "lo") -> tuple[Term, str, Path, Var | None] | None:
    """One reduction step under the strategy, or None when no redex exists."""
    red, steps = _stream(t, rules, strategy)
    s = next(steps, None)
    return None if s is None else (red.root, s.rule, s.at, s.fresh)


def normalize(t: Term, rules: frozenset[str] = FULL, strategy: Strategy = "lo",
              fuel: int = 10000) -> tuple[Term, Trace, bool]:
    """Reduce under the strategy until no redex remains or `fuel` steps
    were taken: the first `fuel` steps of one stream (`_stream`), each
    linked here, and only here, to the step before it.

    Under lo one `LeftmostOutermost` walk serves every step: it resumes
    next to the last contraction instead of rescanning from the root, and
    the trace's results are built only when read; read in order, they hold
    one intermediate term at a time (see `TraceStep`).
    Returns the final term, the trace, and an exhaustion flag, which says
    whether a redex is left after the last step.  The stream is not asked
    for a step past `fuel`, so none is contracted to find out.  Exhaustion
    is a normal outcome for the full rule set (untyped Beta); the
    propagation rules with Alpha terminate on well-formed terms.
    """
    if fuel <= 0:
        raise ValueError("fuel must be positive")
    red, stream = _stream(t, rules, strategy)
    steps = tuple(itertools.islice(stream, fuel))
    for before, s in zip((t,) + steps, steps):
        s._before = before
    return red.root, Trace(t, steps), len(steps) == fuel and red.next_redex() is not None

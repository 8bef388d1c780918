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
from .syntax import LengthMemo, child_spans, print_spliced, print_term
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


def _contract(t: Term, rule: str, matched: bool = False) -> tuple[Term, Var | None]:
    if not matched and _SHAPE_RULE.get(_shape(t)) != rule:
        raise InvalidRedex(f"rule {rule} does not match {print_term(t)}")
    new = _CONTRACT[rule](t)
    return new, (new.var if rule == ALPHA else None)


def apply_rule(t: Term, at: Path, rule: str, *, _matched: bool = False) -> tuple[Term, Var | None]:
    """Contract the redex for `rule` at `at`; returns the result and, for
    Alpha, the fresh variable chosen.  Raises InvalidRedex when the rule
    does not match there, unless `_matched` says that the caller's rule
    lookup has just matched it there (the engine's stream)."""
    if not at:
        return _contract(t, rule, _matched)
    new, fresh = _contract(subterm_at(t, at), rule, _matched)
    return replace_at(t, at, new), fresh


class TraceStep:
    """One reduction step: the rule, the path of its redex, the fresh name
    Alpha chose (else None), and the term after the step.

    A step that the engine made, under any strategy, holds the redex and
    the contractum; in a trace of `normalize` it also holds the step before
    it (or the initial term), and in the engine's stream none.  A linked lo
    step does not hold its result: that is `replace_at(previous result, at,
    contractum)`, built on first read and then kept.  The replay rebuilds
    the spine above the redex and shares every other subtree, as an eager
    rebuild does, so a normalization that reads only its normal form never
    builds the intermediate terms.  An ri or index:K step holds the term
    its rescan built.  Reading a result drops the links to the step
    before.
    """

    __slots__ = ("rule", "at", "fresh", "_result", "_before", "_redex", "_contractum")

    def __init__(self, rule: str, at: Path, fresh: Var | None, result: Term):
        self.rule, self.at, self.fresh = rule, at, fresh
        self._result, self._before, self._redex, self._contractum = result, None, None, None

    @property
    def result(self) -> Term:
        # The unread steps before this one are replayed oldest first, in a
        # loop, so that reading the last step of a long trace first does
        # not recurse once per step.
        pending, before = [], self
        while isinstance(before, TraceStep) and before._result is None:
            pending.append(before)
            before = before._before
        term = before._result if isinstance(before, TraceStep) else before
        for p in reversed(pending):
            term = replace_at(term, p.at, p._contractum)
            p._result, p._before, p._redex, p._contractum = term, None, None, None
        self._before = self._redex = self._contractum = None
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
        return (f"TraceStep(rule={self.rule!r}, at={self.at!r}, fresh={self.fresh!r}, "
                f"result={self.result!r})")


def _shared(a: Path, b: Path) -> int:
    """The length of the longest common prefix of two paths.  It compares
    slices, not elements: one comparison when the shorter path is a prefix
    of the longer, else a binary search."""
    m = min(len(a), len(b))
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
        builds no result.  Walking down measures only the first child of a
        node with two (`syntax.child_spans`).  The zipper alone holds the
        redex's extent: it hands the splice where the redex's text starts
        and ends, and takes back the contractum's.  The zipper takes in the
        engine's own redex, whose parts the contractum holds by identity,
        in a step linked to the one before it or to none.  Any other step
        (one linked elsewhere, built by hand, or whose result was read) is
        printed in full.

        One memo of printed lengths serves the whole trace.  Its entries are
        checked by identity, and it is cleared when it holds more entries
        than the text has characters, so it follows the live term instead of
        growing with the trace.
        """
        memo: LengthMemo = {}
        before = self.initial
        text = print_term(before)
        yield None, text, 0
        nodes, starts, tails, last = [before], [0], [0], ()
        for s in self.steps:
            if s._contractum is None or (s._before is not None and s._before is not before):
                text = print_term(s.result)
                nodes, starts, tails, last, m = [s.result], [0], [0], (), 0
            else:
                at, old, new = s.at, s._redex, s._contractum
                m = _shared(at, last)
                refresh(nodes, last, m)
                del nodes[m + 1:], starts[m + 1:], tails[m + 1:]
                for i in at[m:]:
                    end = len(text) - tails[-1]
                    c, start, end = child_spans(nodes[-1], starts[-1], end, memo)[i]
                    nodes.append(c)
                    starts.append(start)
                    tails.append(len(text) - end)
                text, starts[-1], end = print_spliced(
                    text, starts[-1], len(text) - tails[-1], nodes[-2] if at else None,
                    at[-1] if at else 0, old, new, memo)
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
    has just matched the rule at the redex, so the contraction is not
    checked again: `apply_rule` reads the rule's entry in `_CONTRACT` at
    each step, and an edit of the table takes effect at once."""
    while (picked := red.next_redex()) is not None:
        path, rule = picked
        redex = red.focus
        new, fresh = apply_rule(redex, (), rule, _matched=True)
        s = TraceStep(rule, path, fresh, red.replace(new))
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
    next to the last contraction instead of rescanning from the root.
    Under every strategy the trace's results are built only when read (see
    `TraceStep`).
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

"""Abstract syntax for terms and substitutions with named variables, and
positions and traversal for the node classes of both calculi.

Terms are variables, applications, abstractions, and compositions ``S * A``
of a substitution with a term.  Substitutions come in four forms: a slash
``[B/x]`` (substitute B for the innermost bound x), a weakening ``W x``
(skip the innermost bound x), a renaming ``{y x}`` (rebind the innermost
bound y as x), and a lift ``S^x`` (push S under one binder for x).

All nodes are immutable values; no binding discipline is enforced at
construction.  Well-formedness is a separate judgement (see
:mod:`exsub.judgements`).

Every record of the package (the nodes of both calculi, contexts,
derivations, traces, suite reports and generator settings) is a
:class:`Value`: its fields are exactly its annotations, its constructor is
made for it when the class is defined, and it compares, hashes and prints by
those fields as a frozen dataclass would.  Setting up a class costs the base
one compiled ``__init__``, under a tenth of what ``dataclasses`` spends, and
imports neither ``dataclasses`` nor ``inspect``.  No module imports
``typing`` either: the unions below are written ``X | Y``,
``typing.get_type_hints`` resolves the annotations of every record, and
``Callable`` and ``Iterator`` appear only in annotations of functions and
module-level names, which are never evaluated.

Every node class, here and in :mod:`exsub.debruijn`, names the fields that
hold its children, in scan order, in the plain class attribute ``CHILDREN``.
A path is the tuple of child positions in each parent's ``CHILDREN`` from
the root down, the ``pathAsChildIndices`` that traces print.  Subterm
lookup, rebuilding, size, the redex scans of both engines and their shared
leftmost-outermost driver (:class:`LeftmostOutermost`) read only this table.
"""

from __future__ import annotations

# Variable names are plain interned strings drawn from [a-z][a-zA-Z0-9_]*,
# with the keyword "W" excluded by the lexer.
Var = str

Path = tuple[int, ...]


def _constructor(cls, fields: tuple[str, ...]):
    """An `__init__` for `cls` that takes `fields` positionally or by name,
    with the class attribute of the same name as a field's default, and
    stores them straight into the instance `__dict__`."""
    defaults = {f"_d_{f}": vars(cls)[f] for f in fields if f in vars(cls)}
    params = [f"{f}=_d_{f}" if f"_d_{f}" in defaults else f for f in fields]
    body = ["d = self.__dict__"] if fields else ["pass"]
    body += [f"d[{f!r}] = {f}" for f in fields]
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    ns: dict = {}
    exec(f"def __init__(self, {', '.join(params)}):\n    " + "\n    ".join(body), defaults, ns)
    ns["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
    return ns["__init__"]


class Value:
    """Base of the package's immutable records.

    A subclass's fields are exactly its annotations, in order, and a class
    attribute that is not annotated, such as ``CHILDREN``, is no field; a
    class attribute of a field's name is its default, and a `__post_init__`
    is called after the fields are stored.  The instance `__dict__` holds
    exactly the fields, in order, so `==` compares two records of one class
    by their dicts, `hash` is the hash of the tuple of field values, and
    `repr` reads ``Name(field=value, ...)``: the same results as a frozen
    dataclass with those fields.  Assignment and deletion raise
    AttributeError; `__dict__` itself is written only by the constructor,
    `__post_init__`, `copy`/`pickle` and `_with_child`.
    """

    __match_args__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = tuple(vars(cls).get("__annotations__", ()))
        cls.__init__ = _constructor(cls, cls.__match_args__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        try:
            return self.__dict__ == other.__dict__
        except RecursionError:
            return _deep_eq(self, other)

    def __hash__(self) -> int:
        try:
            return hash(tuple(self.__dict__.values()))
        except RecursionError:
            return _deep_hash(self)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in self.__dict__.items())
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# `==` and `hash` recurse once per level of nesting, which is fast on the
# shallow values that make up nearly every call.  A value nested past the
# recursion limit makes them raise RecursionError at some depth; the call
# there catches it and answers for its own subtree by the loops below,
# which give the recursive answers, and the calls above it go on as before.

def _deep_eq(a, b) -> bool:
    """`a == b` for records and tuples nested to any depth, on a stack."""
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        cls = type(a)
        if cls is not type(b):
            if a != b:
                return False
        elif isinstance(a, Value):
            da, db = a.__dict__, b.__dict__
            if da.keys() != db.keys():
                return False
            stack.extend((x, db[k]) for k, x in da.items())
        elif cls is tuple:
            if len(a) != len(b):
                return False
            stack.extend(zip(a, b))
        elif a != b:
            return False
    return True


class _Hashed:
    """Stands for a value whose hash is known, inside a tuple being hashed."""
    __slots__ = ("h",)

    def __init__(self, h: int):
        self.h = h

    def __hash__(self) -> int:
        return self.h


def _deep_hash(v) -> int:
    """`hash(v)` for records and tuples nested to any depth: a record hashes
    as the tuple of its field values, and each tuple is hashed once the
    hashes of its items are known, in post-order on a stack."""
    stack, done = [(v, False)], []
    while stack:
        u, expanded = stack.pop()
        items = tuple(u.__dict__.values()) if isinstance(u, Value) else u
        if expanded:
            n = len(items)
            hashes = done[len(done) - n:]
            del done[len(done) - n:]
            done.append(hash(tuple(map(_Hashed, hashes))))
        elif isinstance(u, Value) or type(u) is tuple:
            stack.append((u, True))
            stack.extend((c, False) for c in reversed(items))
        else:
            done.append(hash(u))
    return done[0]


class VarRef(Value):
    name: Var
    CHILDREN = ()


class App(Value):
    fn: "Term"
    arg: "Term"
    CHILDREN = ("fn", "arg")


class Lam(Value):
    var: Var
    body: "Term"
    CHILDREN = ("body",)


class Comp(Value):
    sub: "Subst"
    body: "Term"
    CHILDREN = ("sub", "body")


class Slash(Value):
    term: "Term"
    var: Var
    CHILDREN = ("term",)


class Weak(Value):
    var: Var
    CHILDREN = ()


class Rename(Value):
    # {new old}: consumes a binding for `new`, produces one for `old`.
    new: Var
    old: Var
    CHILDREN = ()


class Lift(Value):
    sub: "Subst"
    var: Var
    CHILDREN = ("sub",)


Term = VarRef | App | Lam | Comp
Subst = Slash | Weak | Rename | Lift
Node = Term | Subst


def path_indices(path: Path) -> list[int]:
    """`path` as a list, the ``pathAsChildIndices`` of a JSON trace."""
    return list(path)


class InvalidRedex(Exception):
    """A rule's left-hand shape does not match at the given position."""


class BadPath(InvalidRedex):
    """A path holds a position that the node it reached does not have."""


def children(node) -> Iterator[tuple[int, object]]:
    """The (position, child) pairs of a node of either calculus, in scan
    order."""
    return enumerate(getattr(node, f) for f in node.CHILDREN)


def _field(node, i: int) -> str:
    """The field of child `i` of `node`."""
    if type(i) is not int or not 0 <= i < len(node.CHILDREN):
        raise BadPath(f"{type(node).__name__} has no child {i!r}")
    return node.CHILDREN[i]


def subterm_at(node, path: Path):
    for i in path:
        node = getattr(node, _field(node, i))
    return node


def _with_child(node, field: str, new):
    """`node` with the child in `field` replaced by `new` (one level)."""
    # A Value's __dict__ holds exactly its fields, and no node class has
    # __slots__ or __post_init__, so a copy of the dict builds the value the
    # constructor would, without its call.
    copy = object.__new__(type(node))
    d = copy.__dict__
    d.update(node.__dict__)
    d[field] = new
    return copy


def replace_at(node, path: Path, new):
    """Rebuild `node` with the subtree at `path` replaced by `new`.

    Untouched subtrees are shared, not copied.
    """
    spine = []
    for i in path:
        f = _field(node, i)
        spine.append((node, f))
        node = getattr(node, f)
    for parent, f in reversed(spine):
        new = _with_child(parent, f, new)
    return new


def node_size(node) -> int:
    """Number of constructors in a term or substitution of either calculus."""
    n, stack = 0, [node]
    while stack:
        node = stack.pop()
        n += 1
        stack.extend(getattr(node, f) for f in node.CHILDREN)
    return n


def refresh(nodes: list, at: Path | list[int], top: int = 0) -> None:
    """Rebuild the stale frames of a zipper, from the last node's parent up
    to `nodes[top]`: each `nodes[k]` whose child `at[k]` is not `nodes[k + 1]`."""
    for k in range(len(nodes) - 2, top - 1, -1):
        parent, f = nodes[k], nodes[k].CHILDREN[at[k]]
        if getattr(parent, f) is not nodes[k + 1]:
            nodes[k] = _with_child(parent, f, nodes[k + 1])


# What `rule_at` answers at a node with no redex at its root but whose
# rule may yet match there after a step below it (see `LeftmostOutermost`).
UNSETTLED = ""


class LeftmostOutermost:
    """Leftmost-outermost reduction of one term, resumed between steps.

    `rule_at(node)` names the rule whose left-hand side matches at the root
    of `node`; or answers `UNSETTLED`, the empty string, when none matches
    but a step below `node` may make one match; or returns None.  It must
    return None at a node without children, as no left-hand side of either
    calculus has its root there.  `next_redex` walks the term in the order
    of the redex scans (outside-in, left to right) on an explicit stack of
    (node, child position) frames and stops at the first node with a rule,
    the focus.  The positions of the frames above the focus are its path.
    `replace` puts the contractum in place of the focus.  The next walk
    does not restart at the root:

    * A subtree the walk has finished holds no redex, and later steps do
      not change it.  A memo, keyed by id and holding the node, keeps these
      subtrees, and the walk skips them wherever they show up again.  A
      child without children is skipped too: it is never entered.
    * Every left-hand side looks at most two levels below its root, so a
      contraction can make a new redex only at the contractum, its parent
      or its grandparent.  The walk resumes at the grandparent.
    * A rule that reads a whole subtree is the exception.  The walk keeps
      the depth of the topmost frame it entered that answered `UNSETTLED`,
      until it leaves that frame, and resumes there when it lies above the
      grandparent.  A deeper such frame needs no depth of its own: the
      walk leaves it before the topmost one.

    The frames form a zipper (Huet, "The Zipper", 1997).  `replace`
    rebuilds only the frames from the focus's parent down to the frame the
    walk resumes at; the frames above it still hold the old child.  The
    walk rebuilds such a stale frame when it pops back into it, and `root`
    rebuilds what is still stale when it is read (`refresh`, as the trace
    printer does).  A step therefore costs the same however deep its redex
    lies.
    """

    def __init__(self, root, rule_at: Callable[[object], str | None]):
        self._rule_at = rule_at
        self._nodes = [root]    # the path from the root to the walk's position
        self._next: list[int] = []      # per frame: the child being walked
        self._unsettled: int | None = None  # depth of the topmost unsettled frame
        self._clean: dict[int, object] = {}
        self._found: tuple[Path, str] | None = None

    @property
    def root(self):
        """The current term, with every stale frame rebuilt."""
        refresh(self._nodes, self._next)
        return self._nodes[0]

    @property
    def focus(self):
        """The redex `next_redex` found."""
        return self._nodes[-1]

    def next_redex(self) -> tuple[Path, str] | None:
        """Path and rule of the leftmost-outermost redex, or None when the
        term holds none."""
        if self._found is not None:
            return self._found
        nodes, nxt, clean = self._nodes, self._next, self._clean
        rule_at = self._rule_at
        while True:
            node = nodes[-1]
            if len(nxt) < len(nodes):       # entering `node`
                rule = rule_at(node)
                if rule:
                    self._found = tuple(nxt), rule
                    return self._found
                if rule is not None and self._unsettled is None:
                    self._unsettled = len(nxt)
                nxt.append(0)
            kids, i = node.CHILDREN, nxt[-1]
            while i < len(kids):
                c = getattr(node, kids[i])
                if c.CHILDREN and clean.get(id(c)) is not c:
                    break
                i += 1
            if i < len(kids):
                nxt[-1] = i
                nodes.append(c)
                continue
            clean[id(node)] = node          # finished: no redex below
            if len(nodes) == 1:
                return None                 # the root frame stays for `root`
            nodes.pop()
            nxt.pop()
            if self._unsettled == len(nodes):
                self._unsettled = None
            parent = nodes[-1]
            f = parent.CHILDREN[nxt[-1]]
            if getattr(parent, f) is not node:      # stale: rebuild it now
                nodes[-1] = _with_child(parent, f, node)
            nxt[-1] += 1

    def replace(self, new) -> None:
        """Put `new` in place of the focus and rebuild the frames down to
        the one the walk resumes at."""
        if self._found is None:
            raise ValueError("no redex found to replace")
        nodes, nxt = self._nodes, self._next
        depth = len(nxt)
        resume = max(depth - 2, 0)
        if self._unsettled is not None and self._unsettled < resume:
            resume = self._unsettled
        nodes[depth] = new
        # all stale: `refresh`'s checks here would cost 2% of church throughput
        for k in range(depth - 1, resume - 1, -1):
            parent = nodes[k]
            nodes[k] = _with_child(parent, parent.CHILDREN[nxt[k]], nodes[k + 1])
        del nodes[resume + 1:], nxt[resume:]
        self._unsettled = None      # it was at `resume` or below
        self._found = None

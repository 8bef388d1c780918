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
:class:`Value`: its fields are exactly its annotations and lead its
``__slots__``, its cache slots follow, and a record has no ``__dict__``; its
constructor is made for it when the class is defined, and it compares,
hashes and prints by its fields as a frozen dataclass would.  The
constructor and ``_values`` are code compiled once per count of fields and
cache slots, and each one-level rebuilder in ``_rebuild`` (one per child
field, see below) code compiled once per number of fields and position of
the child, with the class's field names put in: the node classes of both
calculi have three such positions, so setting up a class compiles nothing
once a class of its shape exists.  The package imports neither
``dataclasses`` nor ``inspect``.  No module imports ``typing`` either: the
unions below are written ``X | Y``, ``typing.get_type_hints`` resolves the
annotations of every record, and ``Callable`` and ``Iterator`` appear only
in annotations of functions and module-level names, which are never
evaluated.

Every node class, here and in :mod:`exsub.debruijn`, names the fields that
hold its children, in scan order, in the plain class attribute ``CHILDREN``.
A path is the tuple of child positions in each parent's ``CHILDREN`` from
the root down, the ``pathAsChildIndices`` that traces print.  Subterm
lookup, rebuilding, size, the redex scans of both engines and their shared
leftmost-outermost driver (:class:`LeftmostOutermost`) read only this table.
Rebuilding one level calls ``node._rebuild[field](node, new)``, the node's
class built with `new` in place of the child in `field` and every other
field read from `node`.
"""

from __future__ import annotations

from functools import cache
from types import FunctionType

# Variable names are plain interned strings drawn from [a-z][a-zA-Z0-9_]*,
# with the keyword "W" excluded by the lexer.
Var = str

Path = tuple[int, ...]


@cache
def _template(n: int, caches: int, post_init: bool):
    """The code of `__init__` and `_values` for a record of `n` fields and
    `caches` cache slots, compiled once per shape: the fields are named
    ``_0``, ``_1``, ..., and `__init__` stores field i with the global
    ``_set_i``, then None in cache slot j with ``_set_{n + j}``."""
    body = [f"_set_{i}(self, _{i})" for i in range(n)]
    body += [f"_set_{n + j}(self, None)" for j in range(caches)]
    if post_init:
        body.append("self.__post_init__()")
    params = "".join(f", _{i}" for i in range(n))
    values = "".join(f"self._{i}, " for i in range(n))
    ns: dict = {}
    exec(f"def __init__(self{params}):\n    " + "\n    ".join(body)
         + f"\ndef _values(self):\n    return ({values})", ns)
    return ns["__init__"].__code__, ns["_values"].__code__


@cache
def _rebuilder(n: int, k: int):
    """The code of a one-level rebuild of field `k` of a record of `n`
    fields, compiled once per shape: ``_rebuild(s, v)`` calls the global
    ``_cls`` with `v` for field k and ``s._i`` for every other field i."""
    args = ", ".join("v" if i == k else f"s._{i}" for i in range(n))
    ns: dict = {}
    exec(f"def _rebuild(s, v):\n    return _cls({args})", ns)
    return ns["_rebuild"].__code__


class _Record(type):
    """The metaclass of `Value`.  A class's annotations become its
    `__match_args__`, and a class attribute of a field's name becomes that
    field's default.  Its `__slots__` are those fields, then its cache
    slots: the names given as the class keyword `caches`, then ``clean`` if
    its ``CHILDREN`` is not empty.  The class gets an
    `__init__` that takes the fields positionally or by name, stores them
    and None in each cache slot through the slot descriptors and then calls
    `__post_init__` if the class has one, `_values`, the tuple of the
    fields, and `_rebuild`, which maps each field named in the class's
    ``CHILDREN`` to a function of a node and a new child that calls the
    constructor with that field replaced.  Each is the code of `_template`
    or `_rebuilder` with the class's field names put in, so setting up a
    class compiles nothing once a class of its shape has been set up."""

    def __new__(mcls, name, bases, ns, caches=()):
        fields = tuple(ns.get("__annotations__", ()))
        defaults = {f: ns.pop(f) for f in fields if f in ns}
        if tuple(defaults) != fields[len(fields) - len(defaults):]:
            raise TypeError(f"{name}: a field without a default follows one with a default")
        caches += ("clean",) if ns.get("CHILDREN") else ()
        ns["__match_args__"], ns["__slots__"] = fields, fields + caches
        cls = super().__new__(mcls, name, bases, ns)
        post_init = hasattr(cls, "__post_init__")
        if fields or post_init:
            init, values = _template(len(fields), len(caches), post_init)
            env = {f"_set_{i}": getattr(cls, f).__set__ for i, f in enumerate(fields + caches)}
            env["_cls"] = cls
            cls.__init__ = FunctionType(init.replace(co_varnames=("self", *fields)), env,
                                        "__init__", tuple(defaults.values()) or None)
            cls._values = FunctionType(values.replace(co_names=fields), env, "_values")
            cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
            cls._values.__qualname__ = f"{cls.__qualname__}._values"
            names = {f"_{i}": f for i, f in enumerate(fields)}
            cls._rebuild = {}
            for f in getattr(cls, "CHILDREN", ()):
                code = _rebuilder(len(fields), fields.index(f))
                rebuild = FunctionType(code.replace(co_names=tuple(
                    names.get(x, x) for x in code.co_names)), env, f"_with_{f}")
                rebuild.__qualname__ = f"{cls.__qualname__}._with_{f}"
                cls._rebuild[f] = rebuild
        return cls


class Value(metaclass=_Record):
    """Base of the package's immutable records.

    A subclass's fields are exactly its annotations, in order, and a class
    attribute that is not annotated, such as ``CHILDREN``, is no field; a
    class attribute of a field's name is its default, and a `__post_init__`
    is called after the fields are stored.  The fields are the class's
    `__slots__`, and an instance has no `__dict__` of its own: `_values()`
    is the tuple of its field values, in order, and `__dict__` (so
    `vars(v)`) a new dict of the fields, which writing to does not change
    the record.  `==` compares two records of one class by their
    `_values()`, `hash` is the hash of that tuple, and `repr` reads
    ``Name(field=value, ...)``: the same results as a frozen dataclass with
    those fields.  `copy` and `pickle` rebuild a record by its constructor.
    Assignment and deletion raise AttributeError.

    A cache slot (see `_Record`) holds a fact that the fields decide: None
    until its owner writes it with `set_cache`.  It is no field, so none of
    the above reads it, and a copy starts with None in it.
    """

    def _values(self) -> tuple:
        return ()

    @property
    def __dict__(self) -> dict:
        return dict(zip(self.__match_args__, self._values()))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        try:
            return self._values() == other._values()
        except RecursionError:
            return _deep_eq(self, other)

    def __hash__(self) -> int:
        try:
            return hash(self._values())
        except RecursionError:
            return _deep_hash(self)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self.__match_args__, self._values()))
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()

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
            stack.extend(zip(a._values(), b._values()))
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
        items = u._values() if isinstance(u, Value) else u
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


# A term's cache slot `fv` holds its context (see `exsub.freevars.fv`).

class VarRef(Value, caches=("fv",)):
    name: Var
    CHILDREN = ()


class App(Value, caches=("fv",)):
    fn: "Term"
    arg: "Term"
    CHILDREN = ("fn", "arg")


class Lam(Value, caches=("fv",)):
    var: Var
    body: "Term"
    CHILDREN = ("body",)


class Comp(Value, caches=("fv",)):
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
        new = parent._rebuild[f](parent, new)
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
            nodes[k] = parent._rebuild[f](parent, nodes[k + 1])


set_cache = object.__setattr__     # writes a cache slot, as `Value.__setattr__` refuses

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
      not change it.  The walk writes its `rule_at` in the root's cache
      slot `clean`, and skips a subtree marked so wherever it shows up
      again; another walk's mark, made by another lookup, is not read as
      one.  A child without children is skipped too: it is never entered.
    * Every left-hand side looks at most two levels below its root, so a
      contraction can make a new redex only at the contractum, its parent
      or its grandparent.  `reach` maps a node class to how many levels
      below its root a contraction can change what a left-hand side rooted
      there reads, 2 for a class it lacks.  The walk resumes at the
      shallowest of those two frames whose class reaches the contractum,
      else at the contractum, or at its parent when the contractum has no
      children: a frame out of reach of the contractum answers as it did.
    * A rule that reads a whole subtree is the exception.  The walk keeps
      the depth of the topmost frame it entered that answered `UNSETTLED`,
      until it leaves that frame, and resumes there when it lies above the
      frame that reach gives.  A deeper such frame needs no depth of its
      own: the walk leaves it before the topmost one.

    The frames form a zipper (Huet, "The Zipper", 1997).  `replace`
    rebuilds only the frames from the focus's parent up to the frame the
    walk resumes at; the frames above it still hold the old child.  The
    walk rebuilds such a stale frame when it pops back into it, and `root`
    rebuilds what is still stale when it is read (`refresh`, as the trace
    printer does).  A step therefore costs the same however deep its redex
    lies.
    """

    def __init__(self, root, rule_at: Callable[[object], str | None],
                 reach: dict[type, int] | None = None):
        self._rule_at = rule_at
        self._reach = reach or {}
        self._nodes = [root]    # the path from the root to the walk's position
        self._next: list[int] = []      # per frame: the child being walked
        self._unsettled: int | None = None  # depth of the topmost unsettled frame
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
        nodes, nxt, rule_at = self._nodes, self._next, self._rule_at
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
                if c.CHILDREN and c.clean is not rule_at:
                    break
                i += 1
            if i < len(kids):
                nxt[-1] = i
                nodes.append(c)
                continue
            if len(nodes) == 1:
                return None                 # the root frame stays for `root`
            set_cache(node, "clean", rule_at)   # finished: no redex below
            nodes.pop()
            nxt.pop()
            if self._unsettled == len(nodes):
                self._unsettled = None
            parent = nodes[-1]
            f = parent.CHILDREN[nxt[-1]]
            if getattr(parent, f) is not node:      # stale: rebuild it now
                nodes[-1] = parent._rebuild[f](parent, node)
            nxt[-1] += 1

    def replace(self, new) -> None:
        """Put `new` in place of the focus and rebuild the frames up to the
        one the walk resumes at: the shallowest of the two above the focus
        whose class reaches the focus, else the focus, or its parent when
        `new` has no children."""
        if self._found is None:
            raise ValueError("no redex found to replace")
        nodes, nxt, reach = self._nodes, self._next, self._reach
        depth = len(nxt)
        resume = depth if new.CHILDREN or not depth else depth - 1
        for k in range(max(depth - 2, 0), resume):
            if reach.get(type(nodes[k]), 2) >= depth - k:
                resume = k
                break
        if self._unsettled is not None and self._unsettled < resume:
            resume = self._unsettled
        nodes[depth] = new
        # all stale: `refresh`'s checks here would cost 2% of church throughput
        for k in range(depth - 1, resume - 1, -1):
            parent = nodes[k]
            nodes[k] = parent._rebuild[parent.CHILDREN[nxt[k]]](parent, nodes[k + 1])
        del nodes[resume + 1:], nxt[resume:]
        self._unsettled = None      # it was at `resume` or below
        self._found = None

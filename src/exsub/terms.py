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

Every node class, here and in :mod:`exsub.debruijn`, declares its children
in scan order as ``CHILDREN``: (selector, field) pairs.  Paths, subterm
lookup, rebuilding, size and the redex scans of both engines read only
this table.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import ClassVar, Iterator, Union

# Variable names are plain interned strings drawn from [a-z][a-zA-Z0-9_]*,
# with the keyword "W" excluded by the lexer.
Var = str


class Sel(str, Enum):
    """Child selectors; a tuple of these addresses one node in a term."""

    APP_LEFT = "app_left"
    APP_RIGHT = "app_right"
    LAM_BODY = "lam_body"
    COMP_SUBST = "comp_subst"
    COMP_BODY = "comp_body"
    SLASH_BODY = "slash_body"
    LIFT_INNER = "lift_inner"

    def __repr__(self) -> str:  # keeps paths readable in traces and errors
        return self.value


Path = tuple[Sel, ...]
Children = tuple[tuple[Sel, str], ...]


@dataclass(frozen=True)
class VarRef:
    name: Var
    CHILDREN: ClassVar[Children] = ()


@dataclass(frozen=True)
class App:
    fn: "Term"
    arg: "Term"
    CHILDREN: ClassVar[Children] = ((Sel.APP_LEFT, "fn"), (Sel.APP_RIGHT, "arg"))


@dataclass(frozen=True)
class Lam:
    var: Var
    body: "Term"
    CHILDREN: ClassVar[Children] = ((Sel.LAM_BODY, "body"),)


@dataclass(frozen=True)
class Comp:
    sub: "Subst"
    body: "Term"
    CHILDREN: ClassVar[Children] = ((Sel.COMP_SUBST, "sub"), (Sel.COMP_BODY, "body"))


@dataclass(frozen=True)
class Slash:
    term: "Term"
    var: Var
    CHILDREN: ClassVar[Children] = ((Sel.SLASH_BODY, "term"),)


@dataclass(frozen=True)
class Weak:
    var: Var
    CHILDREN: ClassVar[Children] = ()


@dataclass(frozen=True)
class Rename:
    # {new old}: consumes a binding for `new`, produces one for `old`.
    new: Var
    old: Var
    CHILDREN: ClassVar[Children] = ()


@dataclass(frozen=True)
class Lift:
    sub: "Subst"
    var: Var
    CHILDREN: ClassVar[Children] = ((Sel.LIFT_INNER, "sub"),)


Term = Union[VarRef, App, Lam, Comp]
Subst = Union[Slash, Weak, Rename, Lift]
Node = Union[Term, Subst]

# Numeric child position of each selector, used by trace serialization.
CHILD_INDEX: dict[Sel, int] = {sel: i for cls in (App, Lam, Comp, Slash, Lift)
                               for i, (sel, _) in enumerate(cls.CHILDREN)}


def path_indices(path: Path) -> list[int]:
    return [CHILD_INDEX[s] for s in path]


class InvalidRedex(Exception):
    """A rule's left-hand shape does not match at the given position."""


class BadPath(InvalidRedex):
    """A path selector does not apply to the node it reached."""


def children(node) -> Iterator[tuple[Sel, object]]:
    """The (selector, child) pairs of a node of either calculus, in scan
    order."""
    return ((sel, getattr(node, f)) for sel, f in node.CHILDREN)


def _field(node, sel: Sel) -> str:
    for s, f in node.CHILDREN:
        if s == sel:
            return f
    raise BadPath(f"selector {sel.value} does not apply to {type(node).__name__}")


def child(node, sel: Sel):
    return getattr(node, _field(node, sel))


def subterm_at(node, path: Path):
    for sel in path:
        node = child(node, sel)
    return node


def replace_at(node, path: Path, new):
    """Rebuild `node` with the subtree at `path` replaced by `new`.

    Untouched subtrees are shared, not copied.
    """
    if not path:
        return new
    f = _field(node, path[0])
    # a node's __dict__ holds exactly its dataclass fields
    return type(node)(**(vars(node) | {f: replace_at(getattr(node, f), path[1:], new)}))


def node_size(node) -> int:
    """Number of constructors in a term or substitution of either calculus."""
    return 1 + sum(node_size(c) for _, c in children(node))

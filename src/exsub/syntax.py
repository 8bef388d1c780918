r"""Concrete syntax: scanner, parser, and printer.

Grammar (ASCII; `λ` and `∘` are accepted on input for `\` and `*`):

    term  := '\' var '.' term          lambda body extends maximally right
           | subst '*' term            composition, right assoc, loosest
           | app
    app   := atom atom*                application, left assoc
    atom  := var | '(' term ')'
    subst := base ('^' var)*           postfix lift
    base  := '[' term '/' var ']' | 'W' var | '{' var var '}'
    var   := [a-z][a-zA-Z0-9_]*        'W' is reserved

Contexts are written `{x,z}; x,x,y`; the local part may be omitted or
empty (`{}`, `{x};`).

A token is a (kind, text, position) triple.  Its kind is `ident` for a
variable, `eof` at the end of input, and otherwise its own character,
`W` included, with `λ` read as `\` and `∘` as `*`.  The parser keeps its
own stack, so input of any depth parses.

The printer emits minimal parentheses and round-trips: parsing its output
reproduces the term, structurally.
"""

from __future__ import annotations

import re

from .contexts import Context
from .terms import App, Comp, Lam, Lift, Node, Rename, Slash, Subst, Term, VarRef, Weak


class ParseError(Exception):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# One token: an identifier, a character that is a token of its own, or a
# character that starts none.
_TOKEN = r"([a-z][a-zA-Z0-9_]*)|([\\λ.()[\]/{}*∘^;,W])|(\S)"
_ALIASES = {"λ": "\\", "∘": "*"}


def _scan(text: str) -> list[tuple[str, str, int]]:
    """The tokens of `text`, last first, after an end-of-input token."""
    toks = []
    for m in re.finditer(_TOKEN, text):
        if m.lastindex == 3:
            raise ParseError(f"unexpected character {m[0]!r}", m.start())
        kind = "ident" if m.lastindex == 1 else _ALIASES.get(m[0], m[0])
        toks.append((kind, m[0], m.start()))
    toks.append(("eof", "", len(text)))
    toks.reverse()
    return toks


def _take(toks: list, kind: str, what: str = "a variable") -> str:
    """The text of the next token, which must be of `kind`."""
    k, text, pos = toks[-1]
    if k != kind:
        raise ParseError(f"expected {what}, found {text or 'end of input'!r}", pos)
    toks.pop()
    return text


def _lifted(toks: list, s: Subst) -> Subst:
    """`s` under the lifts that follow it, and the `*` that closes them."""
    while toks[-1][0] == "^":
        toks.pop()
        s = Lift(s, _take(toks, "ident"))
    _take(toks, "*", "'*' after a substitution")
    return s


def parse_term(text: str) -> Term:
    """The term `text` denotes.  A term is read as the binders and
    substitutions in front of it, then an application of atoms.  Nesting
    goes on an explicit stack, not on Python's: each frame is an open `(`
    or `[`, and holds the binders and substitutions waiting for the term
    inside it and the application it interrupted.
    """
    toks = _scan(text)
    stack: list[tuple[str, list, Term | None]] = []
    prefix: list[str | Subst] = []       # binders' variables and substitutions
    fn: Term | None = None               # the application so far
    while True:
        kind, word, pos = toks.pop()
        if kind == "ident":
            fn = VarRef(word) if fn is None else App(fn, VarRef(word))
        elif kind == "(" or (fn is None and kind == "["):
            stack.append((kind, prefix, fn))
            prefix, fn = [], None
        elif fn is None and kind == "\\":
            prefix.append(_take(toks, "ident"))
            _take(toks, ".", "'.'")
        elif fn is None and kind == "W":
            prefix.append(_lifted(toks, Weak(_take(toks, "ident"))))
        elif fn is None and kind == "{":
            s = Rename(_take(toks, "ident"), _take(toks, "ident"))
            _take(toks, "}", "'}'")
            prefix.append(_lifted(toks, s))
        elif fn is None:
            raise ParseError(f"expected a term, found {word or 'end of input'!r}", pos)
        else:                               # the term ends before this token
            toks.append((kind, word, pos))
            t = fn
            for p in reversed(prefix):
                t = Lam(p, t) if type(p) is str else Comp(p, t)
            if not stack:
                _take(toks, "eof", "end of input")
                return t
            opened, prefix, fn = stack.pop()
            if opened == "(":
                _take(toks, ")", "')'")
                fn = t if fn is None else App(fn, t)
            else:
                _take(toks, "/", "'/'")
                x = _take(toks, "ident")
                _take(toks, "]", "']'")
                prefix.append(_lifted(toks, Slash(t, x)))


def _names(toks: list) -> list[str]:
    """A list of variables separated by commas, possibly empty."""
    names = []
    if toks[-1][0] == "ident":
        names.append(toks.pop()[1])
        while toks[-1][0] == ",":
            toks.pop()
            names.append(_take(toks, "ident"))
    return names


def parse_context(text: str) -> Context:
    toks = _scan(text)
    _take(toks, "{", "'{'")
    globs = _names(toks)
    _take(toks, "}", "'}'")
    locs = []
    if toks[-1][0] == ";":
        toks.pop()
        locs = _names(toks)
    _take(toks, "eof", "end of input")
    return Context(frozenset(globs), tuple(locs))


# Entries hold the node itself so its id stays valid for the cache key.
LengthMemo = dict[int, tuple[Node, int]]

_TERMS = frozenset(Term.__args__)
_SUBSTS = frozenset(Subst.__args__)


def _expect(node, sorts: frozenset, what: str) -> None:
    if type(node) not in sorts:
        raise TypeError(f"not a {what}: {node!r}")


# The classes that print without parentheses as child 0 and as child 1 of
# an application: application is left associative, so a left App needs
# none, and an argument needs them unless it is a variable.
_BARE_FN, _BARE_ARG = _BARE = frozenset({VarRef, App}), frozenset({VarRef})


def _in_parens(k: int, node) -> bool:
    """Whether `node` prints in parentheses as child `k` of an application."""
    return type(node) not in _BARE[k]


def _parts(u) -> tuple:
    """The text of `u` as a stack: literal strings, and its children in place
    of their texts, last first.  Checks the sort of each child; the checks
    and the choice of parentheses are inline, as this runs at every node
    printed, and call `_expect` only to raise."""
    cls = type(u)
    if cls is App:
        f, a = u.fn, u.arg
        cf, ca = type(f), type(a)
        if cf not in _TERMS or ca not in _TERMS:
            _expect(f, _TERMS, "term")
            _expect(a, _TERMS, "term")
        return (((a, " ") if ca in _BARE_ARG else (")", a, " ("))
                + ((f,) if cf in _BARE_FN else (")", f, "(")))
    if cls is Lam:
        if type(u.body) not in _TERMS:
            _expect(u.body, _TERMS, "term")
        return u.body, f"\\{u.var}. "
    if cls is Comp:
        if type(u.sub) not in _SUBSTS or type(u.body) not in _TERMS:
            _expect(u.sub, _SUBSTS, "substitution")
            _expect(u.body, _TERMS, "term")
        return u.body, " * ", u.sub
    if cls is VarRef:
        return u.name,
    if cls is Slash:
        if type(u.term) not in _TERMS:
            _expect(u.term, _TERMS, "term")
        return f"/{u.var}]", u.term, "["
    if cls is Weak:
        return f"W {u.var}",
    if cls is Rename:
        return f"{{{u.new} {u.old}}}",
    if type(u.sub) not in _SUBSTS:              # Lift
        _expect(u.sub, _SUBSTS, "substitution")
    return f"^{u.var}", u.sub


def _print(root, parts=None) -> str:
    """The text of `root`, whose class the caller has checked.  `parts`
    gives a node's text parts as `_parts` does, and is `_parts` unless
    given: the de Bruijn printer passes its own.

    Pre-order on an explicit stack, so that deep terms do not hit the
    recursion limit.  The stack holds nodes still to print and literal text;
    both come off it in output order.
    """
    if parts is None:
        parts = _parts
    out: list[str] = []
    stack: list = [root]
    while stack:
        u = stack.pop()
        cls = type(u)
        if cls is str:
            out.append(u)
        elif cls is VarRef:
            out.append(u.name)
        else:
            stack += parts(u)
    return "".join(out)


def _length(root: Node, memo: LengthMemo) -> int:
    """`len(_print(root))`, recording in `memo` the length of every
    node with children that it measures; a root without children is
    measured by adding up the lengths of its names.  Post-order on an
    explicit stack: a pair (node, start) comes off it once the lengths of
    the node's parts are on `out` from `start` on."""
    if not root.CHILDREN:
        cls = type(root)
        if cls is VarRef:
            return len(root.name)
        if cls is Weak:
            return 2 + len(root.var)
        return 3 + len(root.new) + len(root.old)        # Rename
    hit = memo.get(id(root))
    if hit is not None and hit[0] is root:
        return hit[1]
    out: list[int] = []
    stack: list = [root]
    while stack:
        u = stack.pop()
        if type(u) is tuple:
            u, start = u
            n = sum(out[start:])
            del out[start:]
            out.append(n)
            memo[id(u)] = (u, n)
            continue
        if u.CHILDREN:
            hit = memo.get(id(u))
            if hit is not None and hit[0] is u:
                out.append(hit[1])
                continue
            stack.append((u, len(out)))
        for p in _parts(u):
            if type(p) is str:
                out.append(len(p))
            else:
                stack.append(p)
    return sum(out)


def child_extent(u, i: int, start: int, end: int, memo: LengthMemo,
                 other: tuple[int, int] | None = None) -> tuple[Node, int, int]:
    """Child `i` of `u`, whose text spans `start` to `end`, and where the
    child's text starts and ends.  Each class places its children by the
    width of its own literal text, so nothing is measured but the first
    child of a node with two, an application's function or a composition's
    substitution (`_length`, which records in `memo`), and that only for
    want of `other`: where the other child of such a node starts and ends,
    which the trace printer's zipper holds where a path turns."""
    cls = type(u)
    if cls is App:
        f, a = u.fn, u.arg
        pf, pa = type(f) not in _BARE_FN, type(a) is not VarRef   # in parentheses
        if other is None:       # `split`: where the function's text ends, with its ")"
            split = start + 2 * pf + (len(f.name) if type(f) is VarRef else _length(f, memo))
        else:
            split = other[1] + pf if i else other[0] - pa - 1
        return (a, split + 1 + pa, end - pa) if i else (f, start + pf, split - pf)
    if cls is Comp:
        if other is None:
            split = start + _length(u.sub, memo)
        else:
            split = other[1] if i else other[0] - 3
        return (u.body, split + 3, end) if i else (u.sub, start, split)
    if cls is Lam:
        return u.body, start + len(u.var) + 3, end
    if cls is Slash:
        return u.term, start + 1, end - len(u.var) - 2
    return u.sub, start, end - len(u.var) - 1       # Lift


def print_term(t: Term) -> str:
    _expect(t, _TERMS, "term")
    return _print(t)


def print_subst(s: Subst) -> str:
    _expect(s, _SUBSTS, "substitution")
    return _print(s)


def print_spliced(text: str, start: int, end: int, parent: Node | None, k: int, old: Node,
                  new: Node, out: str | None, memo: LengthMemo) -> tuple[str, int, int]:
    """`text` with the text of `old`, which spans offsets `start` to `end`,
    replaced by the text of `new`, and where the text of `new` starts and
    ends.

    `out` is the text of `new` that the trace printer made from the text
    of `old` by the contracting rule's recipe (`rewrite._SPLICE`), which
    has checked the classes of `new`; or None, and then `new`, which must
    be of the sort of `old`, is printed in full.
    `parent` is the node above `old`, whose child `k` it is, or None at
    the root; only the parentheses of that slot are chosen afresh.  `memo`
    records printed lengths (see `_length`); that of `new` is recorded
    when it has children.
    """
    if out is None:
        sort = _TERMS if type(old) in _TERMS else _SUBSTS
        _expect(new, sort, "term" if sort is _TERMS else "substitution")
        out = _print(new)
    if new.CHILDREN:
        memo[id(new)] = (new, len(out))
    if type(parent) is App:
        if _in_parens(k, old):
            start, end = start - 1, end + 1
        if _in_parens(k, new):
            return f"{text[:start]}({out}){text[end:]}", start + 1, start + 1 + len(out)
    return text[:start] + out + text[end:], start, start + len(out)

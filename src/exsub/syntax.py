r"""Concrete syntax: lexer, parser, and printer.

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

The printer emits minimal parentheses and round-trips: parsing its output
reproduces the term, structurally.
"""

from __future__ import annotations

from .contexts import Context
from .terms import (App, Comp, Lam, Lift, Node, Rename, Slash, Subst, Term, Value,
                    VarRef, Weak)


class ParseError(Exception):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class _Tok(Value):
    kind: str  # one of: ident lambda dot lparen rparen lbrack rbrack slash
    #                    lbrace rbrace star caret semi comma weak eof
    text: str
    pos: int


_PUNCT = {
    "\\": "lambda",
    "λ": "lambda",
    ".": "dot",
    "(": "lparen",
    ")": "rparen",
    "[": "lbrack",
    "]": "rbrack",
    "/": "slash",
    "{": "lbrace",
    "}": "rbrace",
    "*": "star",
    "∘": "star",
    "^": "caret",
    ";": "semi",
    ",": "comma",
}


def _lex(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _PUNCT:
            toks.append(_Tok(_PUNCT[c], c, i))
            i += 1
            continue
        if c == "W":
            # reserved weakening keyword; identifiers must start lowercase
            toks.append(_Tok("weak", "W", i))
            i += 1
            continue
        if c.islower() and c.isascii():
            j = i + 1
            while j < n and (text[j].isalnum() and text[j].isascii() or text[j] == "_"):
                j += 1
            toks.append(_Tok("ident", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    toks.append(_Tok("eof", "", n))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _lex(text)
        self.i = 0

    @property
    def tok(self) -> _Tok:
        return self.toks[self.i]

    def advance(self) -> _Tok:
        t = self.tok
        self.i += 1
        return t

    def expect(self, kind: str, what: str) -> _Tok:
        if self.tok.kind != kind:
            raise ParseError(f"expected {what}, found {self.tok.text or 'end of input'!r}",
                             self.tok.pos)
        return self.advance()

    def ident(self, what: str = "a variable") -> str:
        return self.expect("ident", what).text

    def term(self) -> Term:
        k = self.tok.kind
        if k == "lambda":
            self.advance()
            x = self.ident()
            self.expect("dot", "'.'")
            return Lam(x, self.term())
        if k in ("lbrack", "weak", "lbrace"):
            s = self.subst()
            self.expect("star", "'*' after a substitution")
            return Comp(s, self.term())
        return self.app()

    def app(self) -> Term:
        t = self.atom()
        while self.tok.kind in ("ident", "lparen"):
            t = App(t, self.atom())
        return t

    def atom(self) -> Term:
        k = self.tok.kind
        if k == "ident":
            return VarRef(self.advance().text)
        if k == "lparen":
            self.advance()
            t = self.term()
            self.expect("rparen", "')'")
            return t
        raise ParseError(f"expected a term, found {self.tok.text or 'end of input'!r}",
                         self.tok.pos)

    def subst(self) -> Subst:
        k = self.tok.kind
        if k == "lbrack":
            self.advance()
            body = self.term()
            self.expect("slash", "'/'")
            x = self.ident()
            self.expect("rbrack", "']'")
            s: Subst = Slash(body, x)
        elif k == "weak":
            self.advance()
            s = Weak(self.ident())
        else:
            self.expect("lbrace", "a substitution")
            y = self.ident()
            x = self.ident()
            self.expect("rbrace", "'}'")
            s = Rename(y, x)
        while self.tok.kind == "caret":
            self.advance()
            s = Lift(s, self.ident())
        return s

    def ctx(self) -> Context:
        self.expect("lbrace", "'{'")
        globs: list[str] = []
        if self.tok.kind == "ident":
            globs.append(self.advance().text)
            while self.tok.kind == "comma":
                self.advance()
                globs.append(self.ident())
        self.expect("rbrace", "'}'")
        locs: list[str] = []
        if self.tok.kind == "semi":
            self.advance()
            if self.tok.kind == "ident":
                locs.append(self.advance().text)
                while self.tok.kind == "comma":
                    self.advance()
                    locs.append(self.ident())
        return Context(frozenset(globs), tuple(locs))


def parse_term(text: str) -> Term:
    p = _Parser(text)
    t = p.term()
    p.expect("eof", "end of input")
    return t


def parse_context(text: str) -> Context:
    p = _Parser(text)
    c = p.ctx()
    p.expect("eof", "end of input")
    return c


# Entries hold the node itself so its id stays valid for the cache key.
PrintMemo = dict[int, tuple[Node, str]]
LengthMemo = dict[int, tuple[Node, int]]

_TERMS = frozenset((VarRef, App, Lam, Comp))
_SUBSTS = frozenset((Slash, Weak, Rename, Lift))


def _expect(node, sorts: frozenset, what: str) -> None:
    if type(node) not in sorts:
        raise TypeError(f"not a {what}: {node!r}")


def _in_parens(k: int, node) -> bool:
    """Whether `node` prints in parentheses as child `k` of an application:
    application is left associative, so a left App needs none, and an
    argument needs them unless it is a variable."""
    return type(node) is not VarRef and (k == 1 or type(node) is not App)


def _parts(u) -> tuple:
    """The text of `u` as a stack: literal strings, and its children in place
    of their texts, last first.  Checks the sort of each child."""
    cls = type(u)
    if cls is App:
        f, a = u.fn, u.arg
        _expect(f, _TERMS, "term")
        _expect(a, _TERMS, "term")
        return (((")", a, " (") if _in_parens(1, a) else (a, " "))
                + ((")", f, "(") if _in_parens(0, f) else (f,)))
    if cls is Lam:
        _expect(u.body, _TERMS, "term")
        return u.body, f"\\{u.var}. "
    if cls is Comp:
        _expect(u.sub, _SUBSTS, "substitution")
        _expect(u.body, _TERMS, "term")
        return u.body, " * ", u.sub
    if cls is VarRef:
        return u.name,
    if cls is Slash:
        _expect(u.term, _TERMS, "term")
        return f"/{u.var}]", u.term, "["
    if cls is Weak:
        return f"W {u.var}",
    if cls is Rename:
        return f"{{{u.new} {u.old}}}",
    _expect(u.sub, _SUBSTS, "substitution")     # Lift
    return f"^{u.var}", u.sub


def _print(root, memo: PrintMemo | None, parts=None) -> str:
    """The text of `root`, whose class the caller has checked, taking the
    text of each node that `memo` holds from there.  `parts` gives a node's
    text parts as `_parts` does, and is `_parts` unless given: the de Bruijn
    printer passes its own.

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
        elif memo is not None and id(u) in memo and memo[id(u)][0] is u:
            out.append(memo[id(u)][1])
        else:
            stack += parts(u)
    return "".join(out)


def _length(root: Node, memo: LengthMemo) -> int:
    """`len(_print(root, None))`, recording in `memo` the length of every
    node with children that it measures.  Post-order on an explicit stack:
    a pair (node, start) comes off it once the lengths of the node's parts
    are on `out` from `start` on."""
    if not root.CHILDREN:
        return len(_parts(root)[0])
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


def children_at(u, at: int, memo: LengthMemo) -> list[tuple[Node, int]]:
    """The children of `u`, in the order of its ``CHILDREN``, each with where
    its text starts when the text of `u` starts at `at`.  `memo` records
    printed lengths (see `_length`)."""
    found = []
    for p in reversed(_parts(u)):
        if type(p) is str:
            at += len(p)
        else:
            if found:
                at += _length(found[-1][0], memo)
            found.append((p, at))
    return found


def print_term(t: Term) -> str:
    _expect(t, _TERMS, "term")
    return _print(t, None)


def print_subst(s: Subst) -> str:
    _expect(s, _SUBSTS, "substitution")
    return _print(s, None)


def print_spliced(text: str, start: int, parent: Node | None, k: int, old: Node,
                  new: Node, memo: LengthMemo) -> tuple[str, int]:
    """`text` with the text of `old`, which starts at offset `start`,
    replaced by the text of `new`, and where the text of `new` starts.

    `parent` is the node above `old`, whose child `k` it is, or None at
    the root; only the parentheses of that slot are chosen afresh.  `new`
    is printed around the texts of the children and grandchildren of
    `old`, the parts a rule's contractum reuses, cut out of `text`.  `memo`
    records printed lengths (see `_length`): the length of `new` is added,
    and those of the parts, which the contractum may have dropped, removed.
    """
    sort = _TERMS if type(old) in _TERMS else _SUBSTS
    _expect(new, sort, "term" if sort is _TERMS else "substitution")
    end = start + _length(old, memo)
    cut: PrintMemo = {}
    for c, at in children_at(old, start, memo):
        for g, at_g in [(c, at)] + children_at(c, at, memo):
            if g.CHILDREN:
                cut[id(g)] = (g, text[at_g:at_g + _length(g, memo)])
                memo.pop(id(g))
    out = _print(new, cut)
    if new.CHILDREN:
        memo[id(new)] = (new, len(out))
    if type(parent) is App:
        if _in_parens(k, old):
            start, end = start - 1, end + 1
        if _in_parens(k, new):
            return f"{text[:start]}({out}){text[end:]}", start + 1
    return text[:start] + out + text[end:], start

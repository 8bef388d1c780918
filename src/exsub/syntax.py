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

from dataclasses import dataclass

from .contexts import Context
from .terms import App, Comp, Lam, Lift, Node, Rename, Slash, Subst, Term, VarRef, Weak


class ParseError(Exception):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


@dataclass(frozen=True)
class _Tok:
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

# The longest text a print memo records.  Recording every subterm of a
# chain of n nodes would hold texts of total length O(n^2): 0.4 GB for a
# chain of 10^4 binders.
_MEMO_TEXT_MAX = 1 << 13

_TERMS = frozenset((VarRef, App, Lam, Comp))
_SUBSTS = frozenset((Slash, Weak, Rename, Lift))


def _expect(node, sorts: frozenset, what: str) -> None:
    if type(node) not in sorts:
        raise TypeError(f"not a {what}: {node!r}")


def _print(root: Node, memo: PrintMemo | None) -> str:
    """The text of `root`, whose class the caller has checked.

    Pre-order on an explicit stack, so that deep terms do not hit the
    recursion limit.  The stack holds nodes still to print and literal text;
    both come off it in output order.  With a memo, the text of a node with
    children is looked up before it is printed; otherwise a pair (node,
    start) goes on the stack under its parts, and when it comes off, the
    output from `start` on is joined into the node's text and recorded.
    Variables, weakenings and renamings are cheaper to print than to look
    up and are not recorded.  Nor is a text longer than `_MEMO_TEXT_MAX`:
    from the first such node up, the output stays in pieces until the end.
    """
    out: list[str] = []
    stack: list = [root]
    long_from = -1      # where the output of the last too-long text starts
    while stack:
        u = stack.pop()
        cls = type(u)
        if cls is str:
            out.append(u)
            continue
        if cls is tuple:
            u, start = u
            if start <= long_from:      # u holds a text too long to record
                continue
            text = "".join(out[start:])
            del out[start:]
            out.append(text)
            if len(text) > _MEMO_TEXT_MAX:
                long_from = start
            else:
                memo[id(u)] = (u, text)
            continue
        if cls is VarRef:
            out.append(u.name)
            continue
        if cls is Weak:
            out.append(f"W {u.var}")
            continue
        if cls is Rename:
            out.append(f"{{{u.new} {u.old}}}")
            continue
        if memo is not None:
            hit = memo.get(id(u))
            if hit is not None and hit[0] is u:
                out.append(hit[1])
                continue
            stack.append((u, len(out)))
        if cls is App:
            # application is left associative: a left App needs no parens,
            # and an argument needs them unless it is a variable
            f, a = u.fn, u.arg
            _expect(f, _TERMS, "term")
            _expect(a, _TERMS, "term")
            if type(a) is VarRef:
                stack.append(" " + a.name)
            else:
                stack += (")", a, " (")
            if type(f) is App or type(f) is VarRef:
                stack.append(f)
            else:
                stack += (")", f, "(")
        elif cls is Lam:
            _expect(u.body, _TERMS, "term")
            stack += (u.body, f"\\{u.var}. ")
        elif cls is Comp:
            _expect(u.sub, _SUBSTS, "substitution")
            _expect(u.body, _TERMS, "term")
            stack += (u.body, " * ", u.sub)
        elif cls is Slash:
            _expect(u.term, _TERMS, "term")
            stack += (f"/{u.var}]", u.term, "[")
        else:  # Lift
            _expect(u.sub, _SUBSTS, "substitution")
            stack += (f"^{u.var}", u.sub)
    return "".join(out)


def print_term(t: Term) -> str:
    _expect(t, _TERMS, "term")
    return _print(t, None)


def print_subst(s: Subst) -> str:
    _expect(s, _SUBSTS, "substitution")
    return _print(s, None)


def print_shared(t: Term, memo: PrintMemo) -> str:
    """`print_term(t)`, reusing and recording in `memo` the text of every
    subterm and substitution with children.

    The memo is for printing many terms that share subtrees, such as the
    steps of a trace; the caller may drop entries at any time.
    """
    _expect(t, _TERMS, "term")
    return _print(t, memo)

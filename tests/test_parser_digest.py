"""One digest of what the parser makes of a seeded corpus: the tree, or
the error message and position, for every string, read both as a term and
as a context.  It was recorded before the lexer and the recursive-descent
parser were replaced by a regex scanner and a parser on an explicit stack;
a change that alters any parse, message or position alters the digest.

The corpus holds printed random terms and contexts with up to two random
character edits, random token strings, and every character below U+3100,
alone and inside `x?y` and `{x?}`.
"""

from __future__ import annotations

import hashlib
from random import Random

from exsub.contexts import format_context
from exsub.generators import gen_context, gen_raw_term
from exsub.syntax import ParseError, parse_context, parse_term, print_term

DIGEST = "3ccbab7f93c568e0afc0493b75fba40e2006d3a147c70290f690a973d45dbc1e"

# characters an edit inserts or substitutes
EDITS = "\\λ.()[]/{}*∘^;, Wxyzab_09#é\t"
TOKENS = ("\\", "λ", ".", "(", ")", "[", "]", "/", "{", "}", "*", "∘", "^", ";", ",",
          "W", "x", "y", "ab_1", " ", "Wx", "xW")


def _edited(rng: Random, text: str) -> str:
    for _ in range(rng.randint(0, 2)):
        i = rng.randint(0, len(text))
        op = rng.randrange(3)
        if op == 0:
            text = text[:i] + rng.choice(EDITS) + text[i:]
        elif op == 1:
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + rng.choice(EDITS) + text[i + 1:]
    return text


def corpus() -> list[str]:
    rng = Random(14)
    texts = [_edited(rng, print_term(gen_raw_term(rng, rng.randint(1, 30))))
             for _ in range(8000)]
    texts += [_edited(rng, format_context(gen_context(rng))) for _ in range(2000)]
    texts += ["".join(rng.choice(TOKENS) for _ in range(rng.randint(0, 12)))
              for _ in range(4000)]
    for c in map(chr, range(0x3100)):
        texts += [c, f"x{c}y", f"{{x{c}}}"]
    return texts


def _outcome(parse, text: str) -> str:
    try:
        result = parse(text)
    except ParseError as e:
        msg = str(e)
        if msg.startswith("unexpected character"):
            # `repr` of a character depends on the Unicode version of the
            # running Python, so check the message here and digest its code
            assert msg == f"unexpected character {text[e.pos]!r} (at position {e.pos})"
            msg = f"unexpected character U+{ord(text[e.pos]):04X}"
        return f"error {msg!r} {e.pos}"
    if parse is parse_context:      # a frozenset's repr depends on the hash seed
        return f"context {sorted(result.globals)!r} {result.locals!r}"
    return repr(result)


def test_the_parser_digest_is_unchanged():
    h = hashlib.sha256()
    for text in corpus():
        for parse in (parse_term, parse_context):
            h.update(_outcome(parse, text).encode("utf-8", "surrogatepass") + b"\n")
    assert h.hexdigest() == DIGEST

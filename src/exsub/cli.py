"""Command-line front end.

Subcommands: check, fv, good, reduce, normalize, translate, equiv, nf,
test.  Exit codes: 0 for success or a true answer, 1 for a false answer
or an ill-formed term, 2 for usage errors and input that does not parse.
fv, normalize, reduce and nf answer input of any depth; check, good,
translate, equiv and reduce --context derive, and exit 2 on input nested
deeper than Python's recursion limit lets them.  reduce and normalize read
the engine's stream of steps and keep no step: reduce writes each step as
it is printed, and normalize keeps only the current term.  The engine keeps
what it learns of a node (its free-variable context, that it holds no
redex) on the node, so memory follows the current term, not the number of
steps.  A reader that closes the output early has chosen to stop: the
command exits 0 and writes nothing on stderr.

A command loads only the layers it runs.  This module imports at its top
the standard library, `syntax`, `judgements` (whose exceptions `main`
catches, and which loads `contexts` and `freevars`) and the suite registry,
which loads no layer; each `cmd_*` imports the other layers it uses.  The
parser's other choices are literals, so building it loads nothing more:
`exsub fv` never loads the rewrite engine, and no command but `test`,
`translate` and `equiv` loads the de Bruijn calculi.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import deque
from functools import cache
from itertools import islice

from . import __version__
from .contexts import format_context
from .freevars import fv
from .judgements import IllFormed, NotDerivable, derive, format_derivation, is_good, well_formed
from .suites import SUITES, run_suite
from .syntax import ParseError, parse_context, parse_term, print_term


def _positive_int(text: str) -> int:
    """Argument type of the numeric flags that count steps, fuel, trials or
    size: ASCII digits only, as for --strategy index:K, since `int` also
    reads a sign, spaces, underscores and the digits of other scripts."""
    if not (text.isascii() and text.isdigit()) or int(text) == 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _seed(text: str) -> int:
    """Argument type of --seed: an optional "-", then ASCII digits, as
    `int` also reads a plus sign, spaces, underscores and the digits of
    other scripts."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    return int(text)


def _strategy(text: str) -> str | int:
    """Argument type of --strategy: lo, ri, or index:K with K >= 0."""
    if text in ("lo", "ri"):
        return text
    k = text.removeprefix("index:")
    if k != text and k.isascii() and k.isdigit():     # int() takes signs and spaces too
        return int(k)
    raise argparse.ArgumentTypeError(f"expected lo, ri, or index:K with K >= 0, got {text!r}")


def cmd_check(args) -> int:
    t = parse_term(args.term)
    ctx = well_formed(t) if args.context is None else parse_context(args.context)
    print(format_derivation(derive(ctx, t)))
    return 0


def cmd_fv(args) -> int:
    c = fv(parse_term(args.term))
    if c is None:
        print("undefined")
        return 1
    print(format_context(c))
    return 0


def cmd_good(args) -> int:
    if is_good(parse_term(args.term)):
        print("yes")
        return 0
    print("no")
    return 1


def cmd_reduce(args) -> int:
    from .rewrite import RULE_SETS, Trace, _stream
    t = parse_term(args.term)
    if args.context is not None:
        derive(parse_context(args.context), t)
    _, steps = _stream(t, RULE_SETS[args.rules], args.strategy)
    sys.stdout.writelines(Trace(t, islice(steps, args.steps)).pieces(args.trace))
    print()
    return 0


def cmd_normalize(args) -> int:
    from .rewrite import RULE_SETS, _stream
    red, steps = _stream(parse_term(args.term), RULE_SETS[args.rules], "lo")
    deque(islice(steps, args.fuel), maxlen=0)
    print(print_term(red.root))
    if red.next_redex() is not None:
        print(f"(fuel {args.fuel} exhausted; not a normal form)", file=sys.stderr)
    return 0


def cmd_translate(args) -> int:
    from .debruijn import print_db, translate
    t = parse_term(args.term)
    d = derive(parse_context(args.context), t)
    print(print_db(translate(d, args.calculus), args.notation))
    return 0


def cmd_equiv(args) -> int:
    from .debruijn import equiv_alpha, equiv_gamma
    a, b = parse_term(args.a), parse_term(args.b)
    if args.context is None:        # --alpha, or the default
        ok = equiv_alpha(a, b)
        if not ok and not (is_good(a) and is_good(b)):
            print("false (both terms must be admitted by a pure set)")
            return 1
    else:
        ok = equiv_gamma(a, b, parse_context(args.context))
    print("true" if ok else "false")
    return 0 if ok else 1


def cmd_nf(args) -> int:
    from .normalforms import is_sigma_nf
    from .pure import is_pure
    t = parse_term(args.term)
    sigma = is_sigma_nf(t)
    print(f"sigma-nf: {'yes' if sigma else 'no'}")
    print(f"pure: {'yes' if is_pure(t) else 'no'}")
    return 0 if sigma else 1


def cmd_test(args) -> int:
    from .generators import GenConfig
    cfg = GenConfig(seed=args.seed, size=args.size, count=args.count, fuel=args.fuel)
    report = run_suite(args.suite, cfg)
    if args.json:
        print(report.dumps())
    else:
        print(report.to_text())
    return 0 if not report.failures else 1


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of the command line, built on the first call and then kept:
    building it costs more than parsing most command lines, and a process
    that calls `main` more than once builds it once.  Parsing does not
    change it.  --rules names the rule sets of `rewrite.RULE_SETS`, and
    --calculus the two calculi `translate` takes, as literals that load
    neither layer; a test checks that they agree."""
    p = argparse.ArgumentParser(
        prog="exsub",
        description="Lambda calculus with explicit substitutions, weakening, "
                    "and renaming of bound variables.")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="derive a term, printing the derivation tree")
    c.add_argument("term")
    c.add_argument("--context", help="context such as '{x,z}; x,y' (default: least context)")
    c.set_defaults(fn=cmd_check)

    c = sub.add_parser("fv", help="free-variable context of a term")
    c.add_argument("term")
    c.set_defaults(fn=cmd_fv)

    c = sub.add_parser("good", help="is the term admitted by a pure set?")
    c.add_argument("term")
    c.set_defaults(fn=cmd_good)

    c = sub.add_parser("reduce", help="apply up to N reduction steps")
    c.add_argument("term")
    c.add_argument("--context", help="check derivability here before reducing")
    c.add_argument("--rules", choices=("full", "sigma", "sigma-alpha"), default="full")
    c.add_argument("--strategy", type=_strategy, default="lo", help="lo, ri, or index:K")
    c.add_argument("--steps", type=_positive_int, default=1)
    c.add_argument("--trace", choices=("text", "json"), default="text")
    c.set_defaults(fn=cmd_reduce)

    c = sub.add_parser("normalize", help="reduce to normal form, fuel permitting")
    c.add_argument("term")
    c.add_argument("--rules", choices=("full", "sigma", "sigma-alpha"), default="full")
    c.add_argument("--fuel", type=_positive_int, default=10000)
    c.set_defaults(fn=cmd_normalize)

    c = sub.add_parser("translate", help="de Bruijn translation of a derivable term")
    c.add_argument("term")
    c.add_argument("--context", required=True)
    c.add_argument("--calculus", choices=("upsilon", "upsilon2"), default="upsilon")
    c.add_argument("--notation", choices=("bracket", "compose"), default="bracket")
    c.set_defaults(fn=cmd_translate)

    c = sub.add_parser("equiv", help="equality of de Bruijn translations")
    c.add_argument("a")
    c.add_argument("b")
    g = c.add_mutually_exclusive_group()
    g.add_argument("--context")
    g.add_argument("--alpha", action="store_true",
                   help="compare in the union of the free-name sets")
    c.set_defaults(fn=cmd_equiv)

    c = sub.add_parser("nf", help="classify a term: propagation normal form? pure?")
    c.add_argument("term")
    c.set_defaults(fn=cmd_nf)

    c = sub.add_parser("test", help="run a property suite")
    c.add_argument("suite", choices=sorted(SUITES))
    c.add_argument("--seed", type=_seed, default=0)
    c.add_argument("--count", type=_positive_int, default=1000)
    c.add_argument("--size", type=_positive_int, default=40)
    c.add_argument("--fuel", type=_positive_int, default=10000)
    c.add_argument("--json", action="store_true")
    c.set_defaults(fn=cmd_test)

    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as e:
        # input that does not parse is a usage error, as a bad flag is
        print(f"error: {e}", file=sys.stderr)
        raise SystemExit(2) from e
    except NotDerivable as e:
        print(f"not derivable: {e.reason}")
        return 1
    except IllFormed as e:
        print(f"ill-formed: {e}")
        return 1
    except RecursionError:
        # derive and translate recurse once or more per level
        print("error: input nested too deeply for this command "
              f"(Python's recursion limit is {sys.getrecursionlimit()})", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed the output early: it chose to stop, so this is
        # no error.  What is still buffered goes to the null device, so that
        # the flush at exit raises nothing either.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0


if __name__ == "__main__":
    raise SystemExit(main())

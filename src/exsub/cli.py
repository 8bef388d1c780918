"""Command-line front end.

Subcommands: check, fv, good, reduce, normalize, translate, equiv, nf,
test.  Exit codes: 0 for success or a true answer, 1 for a false answer
or an ill-formed term, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .contexts import format_context
from .debruijn import UPSILON, UPSILON2, equiv_alpha, equiv_gamma, print_db, translate
from .freevars import fv
from .generators import GenConfig
from .judgements import IllFormed, NotDerivable, derive, format_derivation, is_good, well_formed
from .normalforms import ContainsBlock, is_sigma_nf, to_pure
from .rewrite import RULE_SETS, Strategy, normalize
from .suites import SUITES, run_suite
from .syntax import ParseError, parse_context, parse_term, print_term


def _term(text: str):
    try:
        return parse_term(text)
    except ParseError as e:
        raise SystemExit(f"error: {e}") from e


def _context(text: str):
    try:
        return parse_context(text)
    except ParseError as e:
        raise SystemExit(f"error: {e}") from e


def _positive_int(text: str) -> int:
    """Argument type of the numeric flags that count steps, fuel, trials or size."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return n


def _strategy(text: str) -> Strategy:
    if text in ("lo", "ri"):
        return text
    if text.startswith("index:"):
        try:
            return int(text.split(":", 1)[1])
        except ValueError:
            pass
    raise SystemExit(f"error: bad strategy {text!r}; use lo, ri, or index:K")


def cmd_check(args) -> int:
    t = _term(args.term)
    if args.context is not None:
        ctx = _context(args.context)
    else:
        try:
            ctx = well_formed(t)
        except IllFormed as e:
            print(f"ill-formed: {e}")
            return 1
    try:
        d = derive(ctx, t)
    except NotDerivable as e:
        print(f"not derivable: {e.reason}")
        return 1
    print(format_derivation(d))
    return 0


def cmd_fv(args) -> int:
    c = fv(_term(args.term))
    if c is None:
        print("undefined")
        return 1
    print(format_context(c))
    return 0


def cmd_good(args) -> int:
    if is_good(_term(args.term)):
        print("yes")
        return 0
    print("no")
    return 1


def cmd_reduce(args) -> int:
    t = _term(args.term)
    if args.context is not None:
        try:
            derive(_context(args.context), t)
        except NotDerivable as e:
            print(f"not derivable: {e.reason}")
            return 1
    _, trace, _ = normalize(t, RULE_SETS[args.rules], _strategy(args.strategy), args.steps)
    if args.trace == "json":
        print(trace.dumps())
    else:
        print(trace.to_text())
    return 0


def cmd_normalize(args) -> int:
    t = _term(args.term)
    nf, _, exhausted = normalize(t, RULE_SETS[args.rules], "lo", args.fuel)
    print(print_term(nf))
    if exhausted:
        print(f"(fuel {args.fuel} exhausted; not a normal form)", file=sys.stderr)
    return 0


def cmd_translate(args) -> int:
    t = _term(args.term)
    ctx = _context(args.context)
    try:
        d = derive(ctx, t)
    except NotDerivable as e:
        print(f"not derivable: {e.reason}")
        return 1
    flavor = UPSILON2 if args.calculus == "upsilon2" else UPSILON
    print(print_db(translate(d, flavor), args.notation))
    return 0


def cmd_equiv(args) -> int:
    a, b = _term(args.a), _term(args.b)
    if args.alpha or args.context is None:
        ok = equiv_alpha(a, b)
        if not ok and not (is_good(a) and is_good(b)):
            print("false (both terms must be admitted by a pure set)")
            return 1
    else:
        ok = equiv_gamma(a, b, _context(args.context))
    print("true" if ok else "false")
    return 0 if ok else 1


def cmd_nf(args) -> int:
    t = _term(args.term)
    sigma = is_sigma_nf(t)
    try:
        to_pure(t)
        pure = True
    except ContainsBlock:
        pure = False
    print(f"sigma-nf: {'yes' if sigma else 'no'}")
    print(f"pure: {'yes' if pure else 'no'}")
    return 0 if sigma else 1


def cmd_test(args) -> int:
    cfg = GenConfig(seed=args.seed, size=args.size, count=args.count, fuel=args.fuel)
    report = run_suite(args.suite, cfg)
    if args.json:
        print(report.dumps())
    else:
        print(report.to_text())
    return 0 if not report.failures else 1


def build_parser() -> argparse.ArgumentParser:
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
    c.add_argument("--rules", choices=sorted(RULE_SETS), default="full")
    c.add_argument("--strategy", default="lo", help="lo, ri, or index:K")
    c.add_argument("--steps", type=_positive_int, default=1)
    c.add_argument("--trace", choices=("text", "json"), default="text")
    c.set_defaults(fn=cmd_reduce)

    c = sub.add_parser("normalize", help="reduce to normal form, fuel permitting")
    c.add_argument("term")
    c.add_argument("--rules", choices=sorted(RULE_SETS), default="full")
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
    c.add_argument("--context")
    c.add_argument("--alpha", action="store_true",
                   help="compare in the union of the free-name sets")
    c.set_defaults(fn=cmd_equiv)

    c = sub.add_parser("nf", help="classify a term: propagation normal form? pure?")
    c.add_argument("term")
    c.set_defaults(fn=cmd_nf)

    c = sub.add_parser("test", help="run a property suite")
    c.add_argument("suite", choices=sorted(SUITES))
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--count", type=_positive_int, default=1000)
    c.add_argument("--size", type=_positive_int, default=40)
    c.add_argument("--fuel", type=_positive_int, default=10000)
    c.add_argument("--json", action="store_true")
    c.set_defaults(fn=cmd_test)

    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())

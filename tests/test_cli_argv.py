"""Random command lines keep the exit-code contract: `main` returns or
exits with 0, 1 or 2, raises nothing but `SystemExit`, and a term that
does not parse gives 2."""

from __future__ import annotations

from collections import Counter
from random import Random

from exsub.cli import main

TERMS = ("x", "\\x. x", "(\\x. x) y", "(\\x. x x) (\\x. x x)", "[y/x] * x", "W x * y",
         "{y x} * x", "\\x. W x * x", "[x/y]^z * \\z. y", "\\y. W y * y")
UNPARSABLE = ("(x", "x)", "\\x.", "#", "", "[x/y] x", "W * x")
# each option's values, some of them invalid; None marks a flag
OPTIONS = {
    "--context": ("{x}", "{x,y}; z", "{}", "{y,z};", "{", "{x} x"),
    "--rules": ("full", "sigma", "sigma-alpha", "beta"),
    "--strategy": ("lo", "ri", "index:0", "index:2", "index:x"),
    "--steps": ("1", "4", "0", "x"),
    "--trace": ("text", "json", "yaml"),
    "--fuel": ("1", "50", "-1"),
    "--calculus": ("upsilon", "upsilon2", "lambda"),
    "--notation": ("bracket", "compose", "infix"),
    "--alpha": None,
    "--seed": ("0", "7", "-3", "x"),
    "--size": ("3", "8", "0"),
    "--json": None,
}
COMMANDS = {
    "check": ("--context",), "fv": (), "good": (), "nf": (),
    "reduce": ("--context", "--rules", "--strategy", "--steps", "--trace"),
    "normalize": ("--rules", "--fuel"),
    "translate": ("--context", "--calculus", "--notation"),
    "equiv": ("--context", "--alpha"),
    "test": ("--seed", "--size", "--fuel", "--json"),
}
SUITES = ("fv-monotone", "nf-grammar", "confluence", "join-lemmas", "no-such-suite")


def _argv(rng: Random) -> list[str]:
    cmd = rng.choice(sorted(COMMANDS))
    if cmd == "test":
        argv = [cmd, rng.choice(SUITES), "--count", "2"]    # keeps a suite run short
    else:
        argv = [cmd] + rng.choices(TERMS + UNPARSABLE, k=2 if cmd == "equiv" else 1)
    for opt in rng.sample(COMMANDS[cmd], rng.randint(0, len(COMMANDS[cmd]))):
        values = OPTIONS[opt]
        argv += [opt] if values is None else [opt, rng.choice(values)]
    if rng.random() < 0.1:
        argv.insert(rng.randint(1, len(argv)), rng.choice(("--bogus", "x", "-h")))
    return argv


def _exit_code(argv: list[str]) -> object:
    try:
        return main(argv)
    except SystemExit as e:
        return e.code


def test_random_command_lines_exit_0_1_or_2(capsys):
    rng = Random(0)
    codes: Counter = Counter()
    parse_errors = 0
    for _ in range(800):
        argv = _argv(rng)
        code = _exit_code(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2), argv
        codes[code] += 1
        if "-h" not in argv and any(a in UNPARSABLE for a in argv[1:3]):
            assert code == 2, argv
            parse_errors += err.startswith("error: ")
    assert all(codes[c] > 50 for c in (0, 1, 2)) and parse_errors > 50, (codes, parse_errors)

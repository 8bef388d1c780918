"""The numeric flags of the command line accept positive integers written
in ASCII digits only, --seed an integer written as an optional "-" and
ASCII digits, and --strategy lo, ri or index:K with K >= 0.

A zero or negative count of steps, fuel, trials or size, any other seed,
or any other strategy, is a usage error: exit 2 with a message on stderr,
never a traceback, the exit code for "false" or a silent success.
"""

from __future__ import annotations

import pytest

from exsub.cli import main

FLAGS = [
    (["reduce", "x"], "--steps"),
    (["normalize", "x"], "--fuel"),
    (["test", "fv-least"], "--count"),
    (["test", "fv-least"], "--size"),
    (["test", "fv-least"], "--fuel"),
]
IDS = [f"{argv[0]} {flag}" for argv, flag in FLAGS]


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("argv, flag", FLAGS, ids=IDS)
def test_non_positive_numeric_flag_is_usage_error(capsys, argv, flag, value):
    with pytest.raises(SystemExit) as exit_info:
        main(argv + [flag, value])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: expected a positive integer, got '{value}'" in captured.err
    assert "Traceback" not in captured.err


# int() reads a sign, spaces, underscores and non-ASCII digits, which a
# count may not hold, as K in --strategy index:K may not
@pytest.mark.parametrize("value", ["+2", " 2", "2 ", "1_0", "\u0663", "", "2.0"])
@pytest.mark.parametrize("argv, flag", FLAGS, ids=IDS)
def test_numeric_flag_takes_ascii_digits_only(capsys, argv, flag, value):
    with pytest.raises(SystemExit) as exit_info:
        main(argv + [flag, value])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: expected a positive integer, got {value!r}" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv, flag", FLAGS, ids=IDS)
def test_smallest_positive_value_is_accepted(capsys, argv, flag):
    assert main(argv + [flag, "1"]) == 0
    assert capsys.readouterr().out


# a seed may be negative, but int() also reads a plus sign, spaces,
# underscores and non-ASCII digits, which a seed may not hold
@pytest.mark.parametrize("value", ["1_0", " 3", "3 ", "+3", "\u0663", " \u0663", "-\u0663", "",
                                   "-", "3.0", "- 3"])
def test_seed_takes_a_minus_and_ascii_digits_only(capsys, value):
    with pytest.raises(SystemExit) as exit_info:
        main(["test", "fv-least", "--count", "2", "--seed", value])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --seed: expected an integer, got {value!r}" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("value", ["-3", "0", "10"])
def test_seed_is_accepted(capsys, value):
    assert main(["test", "fv-least", "--count", "2", "--seed", value]) == 0
    assert capsys.readouterr().out.endswith(f"(seed {value})\n")


# int() reads a sign, spaces and non-ASCII digits, which K may not hold
@pytest.mark.parametrize("value", ["bogus", "index:x", "index:-1", "index:", "1", "index:+1",
                                   "index: 1", "index:\u0663"])
def test_bad_strategy_is_usage_error(capsys, value):
    with pytest.raises(SystemExit) as exit_info:
        main(["reduce", r"(\x. x) y", "--strategy", value])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --strategy: expected lo, ri, or index:K with K >= 0, got '{value}'" \
        in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("value, steps", [("lo", 1), ("ri", 1), ("index:0", 1),
                                          ("index:5", 0)])
def test_strategy_is_accepted(capsys, value, steps):
    # an index past the last redex is a valid run that takes no step
    assert main(["reduce", r"(\x. x) y", "--strategy", value]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + steps


def test_equiv_alpha_with_context_is_usage_error(capsys):
    # --alpha compares in the union of the free names, so a context would be
    # ignored; the two flags exclude each other
    with pytest.raises(SystemExit) as exit_info:
        main(["equiv", "x", "y", "--alpha", "--context", "{x,y}"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert errors == ["exsub equiv: error: argument --context: not allowed with argument --alpha"]
    assert "Traceback" not in captured.err

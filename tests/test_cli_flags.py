"""The numeric flags of the command line accept positive integers only.

A zero or negative count of steps, fuel, trials or size is a usage error:
exit 2 with a message on stderr, never a traceback or a silent success.
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


@pytest.mark.parametrize("argv, flag", FLAGS, ids=IDS)
def test_smallest_positive_value_is_accepted(capsys, argv, flag):
    assert main(argv + [flag, "1"]) == 0
    assert capsys.readouterr().out

"""The command-line interface, exercised through its main entry point."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from exsub import __version__, cli
from exsub.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_check_wellformed(capsys):
    code, out = run(capsys, "check", r"\x. W x * x")
    assert code == 0
    assert out.splitlines()[0].startswith("R5")


def test_check_with_context(capsys):
    code, out = run(capsys, "check", "x", "--context", "{x}; y")
    assert code == 0 and "R3" in out


def test_check_ill_formed(capsys):
    code, out = run(capsys, "check", r"\x. W y * x")
    assert code == 1 and "ill-formed" in out


@pytest.mark.parametrize("command", ["check", "reduce", "translate"])
def test_not_derivable_is_a_false_answer(capsys, command):
    code, out = run(capsys, command, "x", "--context", "{y};")
    assert (code, out) == (1, "not derivable: variable x is not in the context\n")


def test_fv(capsys):
    code, out = run(capsys, "fv", r"\x. x y")
    assert code == 0 and out.strip() == "{y}"
    code, out = run(capsys, "fv", r"\x. W y * z")
    assert code == 1 and out.strip() == "undefined"


def test_good(capsys):
    assert run(capsys, "good", "x y")[0] == 0
    assert run(capsys, "good", "W x * a")[0] == 1


def test_reduce_text_trace(capsys):
    code, out = run(capsys, "reduce", r"(\x.x) y", "--steps", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == r"(\x. x) y"
    assert lines[1].startswith("Beta")
    assert lines[-1].split("\t")[-1] == "y"


def test_reduce_json_trace(capsys):
    code, out = run(capsys, "reduce", r"(\x.\y.x) y", "--steps", "10",
                    "--trace", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["steps"][-1]["printedTerm"] == r"\z. y"
    assert {"ruleName", "pathAsChildIndices", "freshVariableOrNull",
            "printedTerm"} == set(doc["steps"][0])


def test_reduce_strategies(capsys):
    _, out = run(capsys, "reduce", r"([y/x] * x) ([z/x] * x)",
                 "--strategy", "index:1")
    assert out.strip().splitlines()[-1].endswith("([y/x] * x) z")


def test_normalize(capsys):
    code, out = run(capsys, "normalize", r"(\x.\y.\z. x z (y z)) (\x.\y.x)")
    assert code == 0 and out.strip() == r"\y. \z. z"
    code, out = run(capsys, "normalize", r"\y. W y * y", "--rules", "sigma")
    assert out.strip() == r"\y. W y * y"
    code, out = run(capsys, "normalize", r"\y. W y * y", "--rules", "sigma-alpha")
    assert out.strip() == r"\z. y"


def test_translate(capsys):
    code, out = run(capsys, "translate", r"\x. W x * x", "--context", "{x}")
    assert code == 0 and out.strip() == r"\x[^]"
    _, out = run(capsys, "translate", r"\x. W x * x", "--context", "{x}",
                 "--calculus", "upsilon2")
    assert out.strip() == r"\!x[^]"
    _, out = run(capsys, "translate", r"\x. W x * x", "--context", "{x}",
                 "--notation", "compose")
    assert out.strip() == r"\W * x"
    code, _ = run(capsys, "translate", "x", "--context", "{}")
    assert code == 1


def test_equiv(capsys):
    code, out = run(capsys, "equiv", r"\x. W x * x", r"\y. x", "--context", "{x}")
    assert code == 0 and out.strip() == "true"
    code, out = run(capsys, "equiv", r"\x. W x * x", r"\x. x", "--alpha")
    assert code == 1 and out.strip() == "false"
    code, out = run(capsys, "equiv", r"\x. W x * x", r"\y. x")
    assert code == 0  # alpha comparison is the default without a context


def test_nf(capsys):
    code, out = run(capsys, "nf", r"\y. W y * y")
    assert code == 0
    assert "sigma-nf: yes" in out and "pure: no" in out
    code, out = run(capsys, "nf", "[y/x] * x")
    assert code == 1 and "sigma-nf: no" in out


def test_test_subcommand(capsys):
    code, out = run(capsys, "test", "fv-least", "--seed", "0", "--count", "20")
    assert code == 0 and "20/20 passed" in out


def test_test_subcommand_json(capsys):
    code, out = run(capsys, "test", "upsilon-weights", "--count", "15", "--json")
    doc = json.loads(out)
    assert code == 0 and doc["trials"] == 15 and doc["failures"] == []


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as e:
        main(["test", "bogus-suite"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 2


def test_parse_error_is_clean_exit(capsys):
    with pytest.raises(SystemExit):
        main(["fv", "((("])


def test_main_builds_its_parser_once(capsys, monkeypatch):
    # the first call builds the parser and later calls parse with it; a
    # usage error, --version and -h leave it as it was, and print what a
    # parser built for the call prints
    used = []
    parse_args = cli.argparse.ArgumentParser.parse_args

    def spy(self, *args, **kwargs):
        used.append(self)
        return parse_args(self, *args, **kwargs)

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    monkeypatch.setattr(cli.argparse.ArgumentParser, "parse_args", spy)
    calls = [["fv", "x"], ["reduce"], ["--version"], ["-h"], ["reduce", "-h"],
             ["reduce", "--steps", "0", "x"], ["good", "x"]]
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(outcome(argv))
    assert len(set(map(id, used))) == len(calls)
    used.clear()
    assert [outcome(argv) for argv in calls] == fresh
    assert len(used) == len(calls) and all(p is used[0] for p in used)
    assert used[0] is cli.build_parser()
    assert [code for code, _, _ in fresh] == [0, 2, 0, 0, 0, 2, 0]
    assert fresh[2][1] == f"exsub {__version__}\n"
    assert fresh[3][1].startswith("usage: exsub ")


def test_importing_the_cli_builds_no_parser():
    # building the parser is left to the first call of `main`, so an import
    # costs none of it
    code = "import exsub.cli as c; print(c.build_parser.cache_info().currsize)"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         check=True, env=env, timeout=60)
    assert out.stdout == "0\n"

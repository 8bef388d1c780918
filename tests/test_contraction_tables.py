r"""The contraction tables stay live.

The engine's stream contracts each redex by the rule its lookup found,
reading that rule's entry in `rewrite._CONTRACT` (or, for the de Bruijn
walk, `debruijn._DB_CONTRACT`) at every step.  A mutant that patches an
entry must therefore change what `normalize`, `step`, `exsub reduce` and
`db_normalize_upsilon` produce, even after the stream has started; the
mutation catalogue of the property suites rests on this.
"""

from __future__ import annotations

import pytest

from exsub import debruijn, rewrite
from exsub.cli import main
from exsub.debruijn import DApp, DComp, DSlash, FreeName, One, db_normalize_upsilon
from exsub.rewrite import FULL, SIGMA, VAR, _stream, normalize, step
from exsub.syntax import parse_term, print_term
from exsub.terms import VarRef

# (\x. x) y -> [y/x] * x -> y by Beta, then Var; the mutant's Var gives q
TERM = r"(\x. x) y"


def var_gives_q(t, memo):
    return VarRef("q")


@pytest.mark.parametrize("strategy", ["lo", "ri", 0])
def test_a_patched_entry_changes_normalize(monkeypatch, strategy):
    t = parse_term(TERM)
    assert print_term(normalize(t, FULL, strategy)[0]) == "y"
    monkeypatch.setitem(rewrite._CONTRACT, VAR, var_gives_q)
    nf, trace, _ = normalize(t, FULL, strategy)
    assert print_term(nf) == "q"
    assert [s.rule for s in trace.steps] == ["Beta", "Var"]
    assert trace.to_text().splitlines()[-1] == "Var\t-\t-\tq"


def test_a_patched_entry_changes_step(monkeypatch):
    t = parse_term("[y/x] * x")
    assert step(t, SIGMA) == (VarRef("y"), "Var", (), None)
    monkeypatch.setitem(rewrite._CONTRACT, VAR, var_gives_q)
    assert step(t, SIGMA) == (VarRef("q"), "Var", (), None)


@pytest.mark.parametrize("form", ["text", "json"])
def test_a_patched_entry_changes_reduce(monkeypatch, capsys, form):
    argv = ["reduce", TERM, "--steps", "10", "--trace", form]
    assert main(argv) == 0
    before = capsys.readouterr().out
    monkeypatch.setitem(rewrite._CONTRACT, VAR, var_gives_q)
    assert main(argv) == 0
    after = capsys.readouterr().out
    assert after != before
    assert after.rstrip().endswith('"q"\n    }\n  ]\n}' if form == "json" else "\tq")


def test_an_entry_patched_after_the_stream_started_takes_effect(monkeypatch):
    red, steps = _stream(parse_term(TERM), FULL, "lo")
    assert next(steps).rule == "Beta"
    monkeypatch.setitem(rewrite._CONTRACT, VAR, var_gives_q)
    s = next(steps)
    assert (s.rule, s._contractum) == ("Var", VarRef("q"))
    assert red.root == VarRef("q")
    assert next(steps, None) is None


def test_a_patched_db_entry_changes_db_normalize_upsilon(monkeypatch):
    # b/ applied to 1 1: App distributes it, then Var fires at each 1
    s = DSlash(FreeName("b"))
    a = DComp(s, DApp(One(), One()))
    assert db_normalize_upsilon(a) == DApp(FreeName("b"), FreeName("b"))
    monkeypatch.setitem(debruijn._DB_CONTRACT, "Var", lambda a: FreeName("q"))
    assert db_normalize_upsilon(a) == DApp(FreeName("q"), FreeName("q"))
    assert db_normalize_upsilon(DComp(s, One())) == FreeName("q")

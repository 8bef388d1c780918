"""A suite builds the text of a failing trial only when the trial fails."""

from __future__ import annotations

import pytest

from exsub import checks
from exsub.generators import GenConfig
from exsub.rewrite import SIGMA_ALPHA, normalize
from exsub.suites import run_suite
from exsub.syntax import parse_term


def counting(monkeypatch, name):
    calls = []
    fn = getattr(checks, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(checks, name, wrapper)
    return calls


@pytest.mark.parametrize("suite", ["upsilon-weights", "lpo-decrease"])
def test_passing_trials_print_nothing(monkeypatch, suite):
    calls = counting(monkeypatch, "print_db")
    report = run_suite(suite, GenConfig(seed=0, count=200))
    assert report.trials == 200 and not report.failures
    assert calls == []


def test_passing_oracle_trials_compute_no_context(monkeypatch):
    calls = counting(monkeypatch, "fv")
    report = run_suite("oracle-equivalence", GenConfig(seed=0, count=20))
    assert report.trials == 20 and not report.failures
    assert calls == []


@pytest.mark.parametrize("fuel", [3, 7])
def test_exhausted_trial_shows_the_last_five_lines_of_its_trace(fuel):
    # below five steps the lines start with the term itself
    report = run_suite("sigma-alpha-termination", GenConfig(seed=0, count=20, fuel=fuel))
    assert report.failures
    for f in report.failures:
        _, trace, exhausted = normalize(parse_term(f.term), SIGMA_ALPHA, "lo", fuel)
        assert exhausted
        assert f.trace == tuple(trace.to_text().splitlines()[-5:])

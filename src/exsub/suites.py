"""Property suites: randomized checks of the calculus's metatheorems.

`SUITES` maps each suite's name to a function of a `GenConfig` that runs
the suite's first `cfg.count` trials, drawn from `Random(cfg.seed)`, into a
`TrialReport` of its passes, its inconclusive trials and a `Failure` for
each failing trial.  The draws and checks are in `exsub.checks`, which an
entry imports on its first call, so this registry loads no layer of the
calculus: `exsub test` reads its names before it runs anything.
"""

from __future__ import annotations

import json
from functools import partial

from .terms import Value

# GenConfig (exsub.generators) is named only in annotations, which are never
# evaluated: importing it would load the generators and the de Bruijn layer


class Failure(Value):
    trial: int
    term: str
    context: str
    detail: str
    trace: tuple[str, ...] = ()


class TrialReport(Value):
    suite: str
    seed: int
    trials: int
    passes: int
    failures: tuple[Failure, ...]
    inconclusives: int

    def to_json(self) -> dict:
        return json.loads(self.dumps())

    def dumps(self) -> str:
        """The report as indented JSON: its fields in order, and each
        failure as an object of its own fields."""
        return json.dumps(self, default=vars, indent=2)

    def to_text(self) -> str:
        lines = [f"suite {self.suite}: {self.passes}/{self.trials} passed, "
                 f"{len(self.failures)} failed, {self.inconclusives} inconclusive "
                 f"(seed {self.seed})"]
        for f in self.failures:
            lines.append(f"  FAIL trial {f.trial}: {f.detail}")
            lines.append(f"    term:    {f.term}")
            lines.append(f"    context: {f.context}")
            for step_line in f.trace:
                lines.append(f"    trace:   {step_line}")
        return "\n".join(lines)


def _suite(name: str, draws: str):
    """The entry of the suite `name`: it runs the draw `draws` and the check
    `check_<name>` of `exsub.checks`, which it imports on its first call."""
    run = None

    def suite(cfg: GenConfig) -> TrialReport:
        nonlocal run
        if run is None:
            from . import checks
            run = partial(checks._report, name, getattr(checks, draws),
                          getattr(checks, "check_" + name.replace("-", "_")))
        return run(cfg)
    return suite


SUITES = {name: _suite(name, draws) for name, draws in [
    ("subject-reduction", "_wellformed"),
    ("fv-monotone", "_wellformed"),
    ("fv-least", "_wellformed"),
    ("sigma-alpha-termination", "_wellformed"),
    ("confluence", "_simply_typed"),
    ("translation-simulation", "_wellformed"),
    ("upsilon-weights", "_upsilon_redexes"),
    ("lpo-decrease", "_marked_redexes"),
    ("join-lemmas", "_join_pairs"),
    ("nf-grammar", "_wellformed"),
    ("oracle-equivalence", "_simply_typed"),
]}


def run_suite(name: str, cfg: GenConfig) -> TrialReport:
    try:
        fn = SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return fn(cfg)

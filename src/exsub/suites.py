"""Property suites: randomized checks of the calculus's metatheorems.

A suite is a generator of trial outcomes.  Called with a configuration
and a seeded `Random`, it yields one outcome per trial for as long as it
is read: None for a pass, `SKIP` for an inconclusive trial, which ran out
of fuel or search bound and proves nothing either way, or the texts of a
failure, `(term, context, detail)` with an optional trace.  A suite
builds those texts only in its failing branch, so passing trials print
nothing.  `SUITES` maps each name to a function of the configuration
that reads the first `cfg.count` outcomes, drawn from `Random(cfg.seed)`,
into a `TrialReport`, where a trial that raises fails with the text
`raised <Class>: <message>` and `-` for term and context.  Reports are
deterministic: the same seed and configuration produce byte-identical
output.
"""

from __future__ import annotations

import json
from functools import partial
from random import Random

from .contexts import ctx_le, format_context
from .debruijn import (LAMBDA_UPSILON, UPSILON, UPSILON2, DBTerm, DComp, DId,
                       DLift, DShift, DSlash, db_apply, db_check,
                       db_find_redexes, db_normalize_upsilon,
                       db_one_step_reducts, equiv_gamma, print_db, translate,
                       upsilon_nf)
from .freevars import fv
from .generators import (GenConfig, gen_db, gen_db_marked, gen_db_sub,
                         gen_simply_typed, gen_wellformed)
from .judgements import NotDerivable, derive
from .normalforms import ContainsBlock, is_sigma_nf, to_pure
from .pure import alpha_eq, classical_normalize
from .rewrite import (FULL, SIGMA, SIGMA_ALPHA, W, Trace, apply_rule, find_redexes,
                      normalize)
from .syntax import print_term
from .termination import label, lpo_gt, weights12
from .terms import Value

SKIP = object()         # the outcome of an inconclusive trial
_SEARCH_CAP = 20000     # terms the marked-system search may visit


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


def _report(suite: str, outcomes, cfg: GenConfig) -> TrialReport:
    """The report of the first `cfg.count` outcomes of a suite.  A trial
    whose check raises fails with the exception's text, and the suite
    starts again on the same `Random`."""
    rng = Random(cfg.seed)
    trials, passes, inconclusives, failures = outcomes(cfg, rng), 0, 0, []
    for trial in range(cfg.count):
        try:
            outcome = next(trials)
        except Exception as e:
            outcome = "-", "-", f"raised {type(e).__name__}: {e}"
            trials = outcomes(cfg, rng)
        if outcome is None:
            passes += 1
        elif outcome is SKIP:
            inconclusives += 1
        else:
            failures.append(Failure(trial, *outcome))
    return TrialReport(suite, cfg.seed, cfg.count, passes, tuple(failures), inconclusives)


def _failure(t, ctx, detail: str, trace: tuple[str, ...] = ()) -> tuple:
    """The outcome of a trial that failed on the named term `t` in the
    context `ctx`, or in no context when it is None."""
    return print_term(t), format_context(ctx) if ctx is not None else "-", detail, trace


def _random_step(rng: Random, t, rules):
    redexes = find_redexes(t, rules)
    if not redexes:
        return None
    path, rule = rng.choice(redexes)
    return apply_rule(t, path, rule)[0], rule


def suite_subject_reduction(cfg: GenConfig, rng: Random):
    """A step never breaks derivability, in either calculus."""
    while True:
        ctx, t = gen_wellformed(cfg, rng)
        stepped = _random_step(rng, t, FULL)
        if stepped is not None:
            t2, rule = stepped
            try:
                derive(ctx, t2)
            except NotDerivable as e:
                yield _failure(t, ctx, f"{rule} step broke derivability: {e.reason}",
                               (f"{rule} -> {print_term(t2)}",))
                continue
        n = rng.randint(0, 2)
        a = gen_db(rng, n, rng.randint(1, max(2, cfg.size // 2)))
        redexes = db_find_redexes(a, LAMBDA_UPSILON)
        if redexes:
            path, rule = rng.choice(redexes)
            if not db_check(n, db_apply(a, path, rule)):
                yield print_db(a), str(n), f"de Bruijn {rule} step broke arity"
                continue
        yield None


def suite_fv_monotone(cfg: GenConfig, rng: Random):
    """Free variables never grow along a reduction step."""
    while True:
        ctx, t = gen_wellformed(cfg, rng)
        stepped = _random_step(rng, t, FULL)
        if stepped is None:
            yield None
            continue
        t2, rule = stepped
        before, after = fv(t), fv(t2)
        yield (None if before is not None and after is not None and ctx_le(after, before)
               else _failure(t, ctx, f"fv grew across a {rule} step"))


def suite_fv_least(cfg: GenConfig, rng: Random):
    """fv is defined on derivable terms, admits them, and is least."""
    while True:
        ctx, t = gen_wellformed(cfg, rng)
        c = fv(t)
        if c is None:
            yield _failure(t, ctx, "fv undefined on a derivable term")
            continue
        try:
            derive(c, t)
        except NotDerivable:
            yield _failure(t, c, "fv does not admit its own term")
        else:
            yield (None if ctx_le(c, ctx)
                   else _failure(t, ctx, "fv is not below the deriving context"))


def suite_sigma_alpha_termination(cfg: GenConfig, rng: Random):
    """Propagation with Alpha normalizes well-formed terms within fuel, and
    the result lands in the normal-form grammar."""
    while True:
        ctx, t = gen_wellformed(cfg, rng)
        nf, trace, exhausted = normalize(t, SIGMA_ALPHA, "lo", cfg.fuel)
        if exhausted:
            # the last five lines of the trace's text: its last five steps
            steps = trace.steps
            before = steps[-6].result if len(steps) > 5 else trace.initial
            yield _failure(t, ctx, f"fuel {cfg.fuel} exhausted",
                           tuple(Trace(before, steps[-5:]).to_text().splitlines()[-5:]))
        else:
            yield (None if is_sigma_nf(nf) and not find_redexes(nf, SIGMA_ALPHA)
                   else _failure(t, ctx, "normal form rejected by the grammar"))


def suite_confluence(cfg: GenConfig, rng: Random):
    """Two random reduction prefixes of a good seed rejoin after
    normalization, up to equality of translations."""
    while True:
        t = gen_simply_typed(rng, cfg, min(cfg.size, 24))
        c = fv(t)
        assert c is not None and c.is_set
        branches = []
        for _ in range(2):
            cur = t
            for _ in range(rng.randint(0, 6)):
                stepped = _random_step(rng, cur, FULL)
                if stepped is None:
                    break
                cur = stepped[0]
            branches.append(cur)
        (nf1, _, exhausted1), (nf2, _, exhausted2) = (
            normalize(b, FULL, "lo", cfg.fuel) for b in branches)
        if exhausted1 or exhausted2:
            yield SKIP
        else:
            yield (None if equiv_gamma(nf1, nf2, c)
                   else _failure(t, c, "branches normalized to inequivalent terms"))


def suite_translation_simulation(cfg: GenConfig, rng: Random):
    """Non-weakening steps translate to exactly one de Bruijn step;
    weakening steps leave the translation unchanged; steps of the
    propagation-with-Alpha system are simulated in the marked calculus
    within a small search bound."""
    bound = 8
    no_alpha = FULL - {"Alpha"}
    while True:
        ctx, t = gen_wellformed(cfg, rng)
        d = derive(ctx, t)
        a = None
        stepped = _random_step(rng, t, no_alpha)
        if stepped is not None:
            t2, rule = stepped
            a = translate(d)
            b = translate(derive(ctx, t2))
            if rule == W:
                if a != b:
                    yield _failure(t, ctx, "weakening step changed the translation")
                    continue
            elif b not in db_one_step_reducts(a, LAMBDA_UPSILON):
                yield _failure(t, ctx, f"{rule} step is not one de Bruijn step")
                continue
        stepped = _random_step(rng, t, SIGMA_ALPHA)
        if stepped is not None:
            t2, rule = stepped
            d2 = derive(ctx, t2)
            reached = _search_upsilon2(translate(d, UPSILON2), translate(d2, UPSILON2), bound)
            if reached is None:
                yield SKIP
                continue
            if not reached:
                yield _failure(t, ctx, f"{rule} step not simulated within {bound} marked steps")
                continue
            # renaming preserves the plain translation up to joining
            if rule == "Alpha" and (db_normalize_upsilon(translate(d) if a is None else a)
                                    != db_normalize_upsilon(translate(d2))):
                yield _failure(t, ctx, "renaming step broke translation joinability")
                continue
        yield None


def _search_upsilon2(a: DBTerm, goal: DBTerm, bound: int) -> bool | None:
    """Breadth-first reachability in the marked system; None when the cap
    was hit before the bound was exhausted (inconclusive)."""
    frontier = [a]
    seen = {a}
    for _ in range(bound):
        if goal in seen:
            return True
        nxt = []
        for u in frontier:
            for v in db_one_step_reducts(u, UPSILON2):
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
                    if len(seen) > _SEARCH_CAP:
                        return None
        frontier = nxt
        if not frontier:
            break
    return goal in seen


def suite_upsilon_weights(cfg: GenConfig, rng: Random):
    """Every substitution step drops the weight pair lexicographically;
    the first weight is strict except on ShiftLift."""
    while True:
        n = rng.randint(0, 2)
        a = gen_db(rng, n, rng.randint(2, max(3, cfg.size // 2)))
        for path, rule in db_find_redexes(a, UPSILON):
            w_a, w_b = weights12(a), weights12(db_apply(a, path, rule))
            if rule == "ShiftLift":
                good = w_a[0] >= w_b[0] and (w_a[0], w_a[1]) > (w_b[0], w_b[1])
            else:
                good = w_a[0] > w_b[0]
            yield (None if good else
                   (print_db(a), "-", f"{rule}: weights {w_a} -> {w_b} do not certify termination"))


def suite_lpo_decrease(cfg: GenConfig, rng: Random):
    """Labelling then comparing with the path order strictly orients every
    step of the marked system."""
    while True:
        a = gen_db_marked(rng, rng.randint(2, max(3, cfg.size // 3)))
        for path, rule in db_find_redexes(a, UPSILON2):
            yield (None if lpo_gt(label(a), label(db_apply(a, path, rule))) else
                   (print_db(a), "-", f"{rule}: labelled step is not a path-order descent"))


def _joinable(a: DBTerm, b: DBTerm) -> bool:
    # one-pass normal forms: every pair join-lemmas builds is well-formed,
    # where they are those of db_normalize_upsilon (see upsilon_nf)
    return upsilon_nf(a) == upsilon_nf(b)


def suite_join_lemmas(cfg: GenConfig, rng: Random):
    """The identity-absorption and commutation pairs have common reducts,
    and any two one-step reducts of a well-formed term rejoin.

    Each instance is assembled with matching arities so both sides are
    well-formed, as the lemmas require.
    """
    size = max(2, cfg.size // 4)
    while True:
        k = rng.randint(0, 2)
        b1 = gen_db(rng, k, rng.randint(1, size))
        a1 = gen_db(rng, k + 1, rng.randint(1, size))
        s, l = gen_db_sub(rng, rng.randint(0, 2), rng.randint(1, size))
        a3 = gen_db(rng, l + 1, rng.randint(1, size))
        b4 = gen_db(rng, l, rng.randint(1, size))
        a4 = gen_db(rng, l + 1, rng.randint(1, size))
        a5 = gen_db(rng, rng.randint(1, 3), rng.randint(1, size))
        pairs = [
            # a[^^^][^^(b/)] ~ a  (lifted shift then lifted slash cancel)
            (DComp(DLift(DSlash(b1)), DComp(DLift(DShift()), a1)), a1),
            # a[^^^][^^id] ~ a[^^^]
            (DComp(DLift(DId()), DComp(DLift(DShift()), a1)),
             DComp(DLift(DShift()), a1)),
            # a[^^^][^^^^s] ~ a[^^s][^^^]
            (DComp(DLift(DLift(s)), DComp(DLift(DShift()), a3)),
             DComp(DLift(DShift()), DComp(DLift(s), a3))),
            # a[b/][s] ~ a[^^s][b[s]/]
            (DComp(s, DComp(DSlash(b4), a4)),
             DComp(DSlash(DComp(s, b4)), DComp(DLift(s), a4))),
            # a[id] ~ a
            (DComp(DId(), a5), a5),
        ]
        for left, right in pairs:
            if not _joinable(left, right):
                yield print_db(left), print_db(right), "pair has no common reduct"
                break
        else:
            # local confluence of the substitution rules
            n = rng.randint(0, 2)
            t = gen_db(rng, n, rng.randint(2, size * 2))
            reducts = db_one_step_reducts(t, UPSILON)
            if len(reducts) >= 2 and not _joinable(*rng.sample(reducts, 2)):
                yield print_db(t), str(n), "one-step reducts do not rejoin"
            else:
                yield None


def suite_nf_grammar(cfg: GenConfig, rng: Random):
    """The normal-form grammar agrees with the absence of propagation
    redexes, and normal forms of good terms embed into pure syntax."""
    while True:
        ctx, t = gen_wellformed(cfg, rng)
        if is_sigma_nf(t) != (not find_redexes(t, SIGMA)):
            yield _failure(t, ctx, "grammar disagrees with the redex scan")
            continue
        nf, _, exhausted = normalize(t, SIGMA, "lo", cfg.fuel)
        if exhausted:
            yield SKIP
            continue
        if not is_sigma_nf(nf):
            yield _failure(nf, ctx, "propagation normal form rejected by the grammar")
            continue
        if ctx.is_set:
            nf, _, exhausted = normalize(t, SIGMA_ALPHA, "lo", cfg.fuel)
            if exhausted:
                yield SKIP
                continue
            try:
                to_pure(nf)
            except ContainsBlock as e:
                yield _failure(nf, ctx, str(e))
                continue
        yield None


def suite_oracle_equivalence(cfg: GenConfig, rng: Random):
    """Full normalization agrees with the classical reducer on erasures of
    simply typed terms, up to classical alpha congruence."""
    while True:
        t = gen_simply_typed(rng, cfg, min(cfg.size, 24))
        nf, _, exhausted = normalize(t, FULL, "lo", cfg.fuel)
        cnf, cexhausted = classical_normalize(t, cfg.fuel)
        if exhausted or cexhausted:
            yield SKIP
            continue
        try:
            p = to_pure(nf)
        except ContainsBlock as e:
            yield _failure(nf, None, str(e))
        else:
            yield (None if alpha_eq(p, cnf)
                   else _failure(t, fv(t), "engine and classical oracle disagree"))


SUITES = {name: partial(_report, name, outcomes) for name, outcomes in [
    ("subject-reduction", suite_subject_reduction),
    ("fv-monotone", suite_fv_monotone),
    ("fv-least", suite_fv_least),
    ("sigma-alpha-termination", suite_sigma_alpha_termination),
    ("confluence", suite_confluence),
    ("translation-simulation", suite_translation_simulation),
    ("upsilon-weights", suite_upsilon_weights),
    ("lpo-decrease", suite_lpo_decrease),
    ("join-lemmas", suite_join_lemmas),
    ("nf-grammar", suite_nf_grammar),
    ("oracle-equivalence", suite_oracle_equivalence),
]}


def run_suite(name: str, cfg: GenConfig) -> TrialReport:
    try:
        fn = SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return fn(cfg)

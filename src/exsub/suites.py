"""Property suites: randomized checks of the calculus's metatheorems.

Each suite runs `cfg.count` trials from a seeded generator and returns a
report.  A failure carries the offending term and context; an
inconclusive trial ran out of fuel or search bound and proves nothing
either way.  Reports are deterministic: the same seed and configuration
produce byte-identical output.
"""

from __future__ import annotations

import json
from random import Random

from .contexts import ctx_le, format_context
from .debruijn import (LAMBDA_UPSILON, UPSILON, UPSILON2, DBTerm, DComp, DId,
                       DLift, DShift, DSlash, db_apply, db_check,
                       db_find_redexes, db_normalize_upsilon,
                       db_one_step_reducts, equiv_gamma, print_db, translate)
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
        return {
            "suite": self.suite,
            "seed": self.seed,
            "trials": self.trials,
            "passes": self.passes,
            "failures": [
                {"trial": f.trial, "term": f.term, "context": f.context,
                 "detail": f.detail, "trace": list(f.trace)}
                for f in self.failures
            ],
            "inconclusives": self.inconclusives,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2)

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


class _Run:
    """Accumulates trial outcomes for one suite."""

    def __init__(self, suite: str, cfg: GenConfig):
        self.suite = suite
        self.cfg = cfg
        self.rng = Random(cfg.seed)
        self.passes = 0
        self.failures: list[Failure] = []
        self.inconclusives = 0
        self.trial = 0

    def ok(self):
        self.passes += 1
        self.trial += 1

    def fail(self, term: str, context: str, detail: str,
             trace: tuple[str, ...] = ()):
        self.failures.append(Failure(self.trial, term, context, detail, trace))
        self.trial += 1

    def skip(self):
        self.inconclusives += 1
        self.trial += 1

    def check(self, cond: bool, term, ctx, detail: str) -> bool:
        """Count a trial that passes when `cond` holds.  `term` is a term
        or its text and `ctx` a context or None; either may instead be a
        function returning it, which only a failing trial calls."""
        if cond:
            self.ok()
        else:
            if callable(term):
                term = term()
            if callable(ctx):
                ctx = ctx()
            shown = term if isinstance(term, str) else print_term(term)
            self.fail(shown, format_context(ctx) if ctx else "-", detail)
        return cond

    def report(self) -> TrialReport:
        return TrialReport(self.suite, self.cfg.seed, self.trial, self.passes,
                           tuple(self.failures), self.inconclusives)


def _random_step(rng: Random, t, rules):
    redexes = find_redexes(t, rules)
    if not redexes:
        return None
    path, rule = rng.choice(redexes)
    new, _ = apply_rule(t, path, rule)
    return new, rule, path


def suite_subject_reduction(cfg: GenConfig) -> TrialReport:
    """A step never breaks derivability, in either calculus."""
    run = _Run("subject-reduction", cfg)
    for _ in range(cfg.count):
        ctx, t = gen_wellformed(cfg, run.rng)
        stepped = _random_step(run.rng, t, FULL)
        if stepped is not None:
            t2, rule, _ = stepped
            try:
                derive(ctx, t2)
            except NotDerivable as e:
                run.fail(print_term(t), format_context(ctx),
                         f"{rule} step broke derivability: {e.reason}",
                         (f"{rule} -> {print_term(t2)}",))
                continue
        n = run.rng.randint(0, 2)
        a = gen_db(run.rng, cfg, n, run.rng.randint(1, max(2, cfg.size // 2)))
        redexes = db_find_redexes(a, LAMBDA_UPSILON)
        if redexes:
            path, rule = run.rng.choice(redexes)
            b = db_apply(a, path, rule)
            if not db_check(n, b):
                run.fail(print_db(a), str(n), f"de Bruijn {rule} step broke arity")
                continue
        run.ok()
    return run.report()


def suite_fv_monotone(cfg: GenConfig) -> TrialReport:
    """Free variables never grow along a reduction step."""
    run = _Run("fv-monotone", cfg)
    for _ in range(cfg.count):
        ctx, t = gen_wellformed(cfg, run.rng)
        stepped = _random_step(run.rng, t, FULL)
        if stepped is None:
            run.ok()
            continue
        t2, rule, _ = stepped
        before, after = fv(t), fv(t2)
        run.check(before is not None and after is not None and ctx_le(after, before),
                  t, ctx, f"fv grew across a {rule} step")
    return run.report()


def suite_fv_least(cfg: GenConfig) -> TrialReport:
    """fv is defined on derivable terms, admits them, and is least."""
    run = _Run("fv-least", cfg)
    for _ in range(cfg.count):
        ctx, t = gen_wellformed(cfg, run.rng)
        c = fv(t)
        if c is None:
            run.fail(print_term(t), format_context(ctx), "fv undefined on a derivable term")
            continue
        try:
            derive(c, t)
        except NotDerivable:
            run.fail(print_term(t), format_context(c), "fv does not admit its own term")
            continue
        run.check(ctx_le(c, ctx), t, ctx, "fv is not below the deriving context")
    return run.report()


def suite_sigma_alpha_termination(cfg: GenConfig) -> TrialReport:
    """Propagation with Alpha normalizes well-formed terms within fuel, and
    the result lands in the normal-form grammar."""
    run = _Run("sigma-alpha-termination", cfg)
    for _ in range(cfg.count):
        ctx, t = gen_wellformed(cfg, run.rng)
        nf, trace, exhausted = normalize(t, SIGMA_ALPHA, "lo", cfg.fuel)
        if exhausted:
            # the last five lines of the trace's text: its last five steps
            steps = trace.steps
            before = steps[-6].result if len(steps) > 5 else trace.initial
            run.fail(print_term(t), format_context(ctx),
                     f"fuel {cfg.fuel} exhausted",
                     tuple(Trace(before, steps[-5:]).to_text().splitlines()[-5:]))
            continue
        run.check(is_sigma_nf(nf) and not find_redexes(nf, SIGMA_ALPHA),
                  t, ctx, "normal form rejected by the grammar")
    return run.report()


def suite_confluence(cfg: GenConfig) -> TrialReport:
    """Two random reduction prefixes of a good seed rejoin after
    normalization, up to equality of translations."""
    run = _Run("confluence", cfg)
    for _ in range(cfg.count):
        t = gen_simply_typed(run.rng, cfg, min(cfg.size, 24))
        c = fv(t)
        assert c is not None and c.is_set
        branches = []
        for _ in range(2):
            cur = t
            for _ in range(run.rng.randint(0, 6)):
                stepped = _random_step(run.rng, cur, FULL)
                if stepped is None:
                    break
                cur = stepped[0]
            branches.append(cur)
        nfs = []
        for b in branches:
            nf, _, exhausted = normalize(b, FULL, "lo", cfg.fuel)
            if exhausted:
                nf = None
            nfs.append(nf)
        if nfs[0] is None or nfs[1] is None:
            run.skip()
            continue
        run.check(equiv_gamma(nfs[0], nfs[1], c), t, c,
                  "branches normalized to inequivalent terms")
    return run.report()


def suite_translation_simulation(cfg: GenConfig) -> TrialReport:
    """Non-weakening steps translate to exactly one de Bruijn step;
    weakening steps leave the translation unchanged; steps of the
    propagation-with-Alpha system are simulated in the marked calculus
    within a small search bound."""
    run = _Run("translation-simulation", cfg)
    bound = 8
    no_alpha = FULL - {"Alpha"}
    for _ in range(cfg.count):
        ctx, t = gen_wellformed(cfg, run.rng)
        d = derive(ctx, t)
        a = None
        redexes = find_redexes(t, no_alpha)
        if redexes:
            path, rule = run.rng.choice(redexes)
            t2, _ = apply_rule(t, path, rule)
            a = translate(d)
            b = translate(derive(ctx, t2))
            if rule == W:
                if a != b:
                    run.fail(print_term(t), format_context(ctx),
                             "weakening step changed the translation")
                    continue
            elif b not in db_one_step_reducts(a, LAMBDA_UPSILON):
                run.fail(print_term(t), format_context(ctx),
                         f"{rule} step is not one de Bruijn step")
                continue
        redexes = find_redexes(t, SIGMA_ALPHA)
        if redexes:
            path, rule = run.rng.choice(redexes)
            t2, _ = apply_rule(t, path, rule)
            d2 = derive(ctx, t2)
            reached = _search_upsilon2(translate(d, UPSILON2), translate(d2, UPSILON2), bound)
            if reached is None:
                run.skip()
                continue
            if not reached:
                run.fail(print_term(t), format_context(ctx),
                         f"{rule} step not simulated within {bound} marked steps")
                continue
            if rule == "Alpha":
                # renaming preserves the plain translation up to joining
                a1 = translate(d) if a is None else a
                if db_normalize_upsilon(a1) != db_normalize_upsilon(translate(d2)):
                    run.fail(print_term(t), format_context(ctx),
                             "renaming step broke translation joinability")
                    continue
        run.ok()
    return run.report()


def _search_upsilon2(a: DBTerm, goal: DBTerm, bound: int,
                     cap: int = 20000) -> bool | None:
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
                    if len(seen) > cap:
                        return None
        frontier = nxt
        if not frontier:
            break
    return goal in seen


def suite_upsilon_weights(cfg: GenConfig) -> TrialReport:
    """Every recorded substitution step drops the weight pair
    lexicographically; the first weight is strict except on ShiftLift."""
    run = _Run("upsilon-weights", cfg)
    recorded = 0
    while recorded < cfg.count:
        n = run.rng.randint(0, 2)
        a = gen_db(run.rng, cfg, n, run.rng.randint(2, max(3, cfg.size // 2)))
        for path, rule in db_find_redexes(a, UPSILON):
            if recorded >= cfg.count:
                break
            b = db_apply(a, path, rule)
            w_a, w_b = weights12(a), weights12(b)
            if rule == "ShiftLift":
                good = w_a[0] >= w_b[0] and (w_a[0], w_a[1]) > (w_b[0], w_b[1])
            else:
                good = w_a[0] > w_b[0]
            run.check(good, lambda: print_db(a), None,
                      f"{rule}: weights {w_a} -> {w_b} do not certify termination")
            recorded += 1
    return run.report()


def suite_lpo_decrease(cfg: GenConfig) -> TrialReport:
    """Labelling then comparing with the path order strictly orients every
    recorded step of the marked system."""
    run = _Run("lpo-decrease", cfg)
    recorded = 0
    while recorded < cfg.count:
        a = gen_db_marked(run.rng, cfg, run.rng.randint(2, max(3, cfg.size // 3)))
        for path, rule in db_find_redexes(a, UPSILON2):
            if recorded >= cfg.count:
                break
            b = db_apply(a, path, rule)
            run.check(lpo_gt(label(a), label(b)), lambda: print_db(a), None,
                      f"{rule}: labelled step is not a path-order descent")
            recorded += 1
    return run.report()


def _joinable(a: DBTerm, b: DBTerm) -> bool:
    return db_normalize_upsilon(a) == db_normalize_upsilon(b)


def suite_join_lemmas(cfg: GenConfig) -> TrialReport:
    """The identity-absorption and commutation pairs have common reducts,
    and any two one-step reducts of a well-formed term rejoin.

    Each instance is assembled with matching arities so both sides are
    well-formed, as the lemmas require.
    """
    run = _Run("join-lemmas", cfg)
    for _ in range(cfg.count):
        rng = run.rng
        size = max(2, cfg.size // 4)
        k = rng.randint(0, 2)
        b1 = gen_db(rng, cfg, k, rng.randint(1, size))
        a1 = gen_db(rng, cfg, k + 1, rng.randint(1, size))
        s, l = gen_db_sub(rng, cfg, rng.randint(0, 2), rng.randint(1, size))
        a3 = gen_db(rng, cfg, l + 1, rng.randint(1, size))
        b4 = gen_db(rng, cfg, l, rng.randint(1, size))
        a4 = gen_db(rng, cfg, l + 1, rng.randint(1, size))
        a5 = gen_db(rng, cfg, rng.randint(1, 3), rng.randint(1, size))
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
        bad = None
        for left, right in pairs:
            if not _joinable(left, right):
                bad = (left, right)
                break
        if bad is not None:
            run.fail(print_db(bad[0]), print_db(bad[1]), "pair has no common reduct")
            continue
        # local confluence of the substitution rules
        n = rng.randint(0, 2)
        t = gen_db(rng, cfg, n, rng.randint(2, size * 2))
        reducts = db_one_step_reducts(t, UPSILON)
        if len(reducts) >= 2:
            u, v = rng.sample(reducts, 2)
            if not _joinable(u, v):
                run.fail(print_db(t), str(n), "one-step reducts do not rejoin")
                continue
        run.ok()
    return run.report()


def suite_nf_grammar(cfg: GenConfig) -> TrialReport:
    """The normal-form grammar agrees with the absence of propagation
    redexes, and normal forms of good terms embed into pure syntax."""
    run = _Run("nf-grammar", cfg)
    for _ in range(cfg.count):
        ctx, t = gen_wellformed(cfg, run.rng)
        if is_sigma_nf(t) != (not find_redexes(t, SIGMA)):
            run.fail(print_term(t), format_context(ctx),
                     "grammar disagrees with the redex scan")
            continue
        nf, _, exhausted = normalize(t, SIGMA, "lo", cfg.fuel)
        if exhausted:
            run.skip()
            continue
        if not is_sigma_nf(nf):
            run.fail(print_term(nf), format_context(ctx),
                     "propagation normal form rejected by the grammar")
            continue
        if ctx.is_set:
            nf2, _, exhausted = normalize(t, SIGMA_ALPHA, "lo", cfg.fuel)
            if exhausted:
                run.skip()
                continue
            try:
                to_pure(nf2)
            except ContainsBlock as e:
                run.fail(print_term(nf2), format_context(ctx), str(e))
                continue
        run.ok()
    return run.report()


def suite_oracle_equivalence(cfg: GenConfig) -> TrialReport:
    """Full normalization agrees with the classical reducer on erasures of
    simply typed terms, up to classical alpha congruence."""
    run = _Run("oracle-equivalence", cfg)
    for _ in range(cfg.count):
        t = gen_simply_typed(run.rng, cfg, min(cfg.size, 24))
        nf, _, exhausted = normalize(t, FULL, "lo", cfg.fuel)
        cnf, cexhausted = classical_normalize(t, cfg.fuel)
        if exhausted or cexhausted:
            run.skip()
            continue
        try:
            p = to_pure(nf)
        except ContainsBlock as e:
            run.fail(print_term(nf), "-", str(e))
            continue
        run.check(alpha_eq(p, cnf), t, lambda: fv(t),
                  "engine and classical oracle disagree")
    return run.report()


SUITES = {
    "subject-reduction": suite_subject_reduction,
    "fv-monotone": suite_fv_monotone,
    "fv-least": suite_fv_least,
    "sigma-alpha-termination": suite_sigma_alpha_termination,
    "confluence": suite_confluence,
    "translation-simulation": suite_translation_simulation,
    "upsilon-weights": suite_upsilon_weights,
    "lpo-decrease": suite_lpo_decrease,
    "join-lemmas": suite_join_lemmas,
    "nf-grammar": suite_nf_grammar,
    "oracle-equivalence": suite_oracle_equivalence,
}


def run_suite(name: str, cfg: GenConfig) -> TrialReport:
    try:
        fn = SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return fn(cfg)

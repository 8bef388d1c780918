"""The property suites' draws and checks, and the loop that runs them.

A suite is a draw and a check.  The draw, `draws(cfg, rng)`, generates
trials: a term, the context it was drawn in (a `Context`, an arity, a de
Bruijn right-hand side, or None), and what else the check reads.  It makes
the `Random` calls every trial makes; one that only some trials reach stays
in the check.  The check, `check(cfg, rng, *trial)`, returns None for a
pass, `SKIP` for an inconclusive trial (out of fuel or search bound, so it
proves nothing either way), the detail of a failure on the drawn term and
context, or the texts `(term, context, detail, trace)` of a failure on
another term.  Texts are built only when a trial fails.  `_report` runs the
first `cfg.count` trials, drawn from `Random(cfg.seed)`, into a
`TrialReport`.  A trial whose check raises fails with `raised <Class>:
<message>` on its own term and context; when the draw raises, the failure
shows `-` for both, and the draws start again on the same `Random`.
Reports are deterministic.

The suite `x-y` is the check `check_x_y` and the draw that `exsub.suites`
names for it; a suite imports this module on its first run.  Every layer
function is bound here at module level and called through that binding,
so a test or a probe that replaces the binding reaches every trial.
"""

from __future__ import annotations

from functools import partial
from random import Random

from .contexts import Context, ctx_le, format_context
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
from .suites import Failure, TrialReport
from .syntax import print_term
from .termination import label, lpo_gt, weights12

SKIP = object()         # the outcome of an inconclusive trial
_SEARCH_CAP = 20000     # terms the marked-system search may visit
_UNDRAWN = None, None   # the term and context of a trial whose draw raised


def _report(suite: str, draws, check, cfg: GenConfig) -> TrialReport:
    """The report of the first `cfg.count` trials of a suite."""
    rng = Random(cfg.seed)
    trials, passes, inconclusives, failures = draws(cfg, rng), 0, 0, []
    for i in range(cfg.count):
        trial = _UNDRAWN
        try:
            trial = next(trials)
            outcome = check(cfg, rng, *trial)
        except Exception as e:
            outcome = f"raised {type(e).__name__}: {e}"
            if trial is _UNDRAWN:     # a generator that raised is finished
                trials = draws(cfg, rng)
        if outcome is None:
            passes += 1
        elif outcome is SKIP:
            inconclusives += 1
        elif isinstance(outcome, str):
            failures.append(Failure(i, *_failure(*trial[:2], outcome)))
        else:
            failures.append(Failure(i, *outcome))
    return TrialReport(suite, cfg.seed, cfg.count, passes, tuple(failures), inconclusives)


def _show(x) -> str:
    if x is None:
        return "-"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Context):
        return format_context(x)
    return print_db(x) if isinstance(x, DBTerm) else print_term(x)


def _failure(t, ctx, detail: str, trace: tuple[str, ...] = ()) -> tuple:
    """The texts of a failure on the named or de Bruijn term `t` in `ctx`:
    a context, an arity, a de Bruijn right-hand side, or None for none."""
    return _show(t), _show(ctx), detail, trace


def _random_step(rng: Random, t, rules):
    redexes = find_redexes(t, rules)
    if not redexes:
        return None
    path, rule = rng.choice(redexes)
    return apply_rule(t, path, rule)[0], rule


def _wellformed(cfg: GenConfig, rng: Random):
    while True:
        ctx, t = gen_wellformed(cfg, rng)
        yield t, ctx


def _simply_typed(cfg: GenConfig, rng: Random):
    while True:
        yield gen_simply_typed(rng, cfg, min(cfg.size, 24)), None


def _each_redex(gen, rules, cfg: GenConfig, rng: Random):
    """One trial per redex of each de Bruijn term `gen` draws, in scan order."""
    while True:
        a = gen(cfg, rng)
        for path, rule in db_find_redexes(a, rules):
            yield a, None, path, rule


def check_subject_reduction(cfg: GenConfig, rng: Random, t, ctx):
    """A step never breaks derivability, in either calculus."""
    stepped = _random_step(rng, t, FULL)
    if stepped is not None:
        t2, rule = stepped
        try:
            derive(ctx, t2)
        except NotDerivable as e:
            return _failure(t, ctx, f"{rule} step broke derivability: {e.reason}",
                            (f"{rule} -> {print_term(t2)}",))
    n = rng.randint(0, 2)
    a = gen_db(rng, n, rng.randint(1, max(2, cfg.size // 2)))
    redexes = db_find_redexes(a, LAMBDA_UPSILON)
    if redexes:
        path, rule = rng.choice(redexes)
        if not db_check(n, db_apply(a, path, rule)):
            return _failure(a, n, f"de Bruijn {rule} step broke arity")
    return None


def check_fv_monotone(cfg: GenConfig, rng: Random, t, ctx):
    """Free variables never grow along a reduction step."""
    stepped = _random_step(rng, t, FULL)
    if stepped is None:
        return None
    t2, rule = stepped
    before, after = fv(t), fv(t2)
    return (None if before is not None and after is not None and ctx_le(after, before)
            else f"fv grew across a {rule} step")


def check_fv_least(cfg: GenConfig, rng: Random, t, ctx):
    """fv is defined on derivable terms, admits them, and is least."""
    c = fv(t)
    if c is None:
        return "fv undefined on a derivable term"
    try:
        derive(c, t)
    except NotDerivable:
        return _failure(t, c, "fv does not admit its own term")
    return None if ctx_le(c, ctx) else "fv is not below the deriving context"


def check_sigma_alpha_termination(cfg: GenConfig, rng: Random, t, ctx):
    """Propagation with Alpha normalizes well-formed terms within fuel, and
    the result lands in the normal-form grammar."""
    nf, trace, exhausted = normalize(t, SIGMA_ALPHA, "lo", cfg.fuel)
    if exhausted:
        # the last five lines of the trace's text: its last five steps
        steps = trace.steps
        before = steps[-6].result if len(steps) > 5 else trace.initial
        return _failure(t, ctx, f"fuel {cfg.fuel} exhausted",
                        tuple(Trace(before, steps[-5:]).to_text().splitlines()[-5:]))
    return (None if is_sigma_nf(nf) and not find_redexes(nf, SIGMA_ALPHA)
            else "normal form rejected by the grammar")


def check_confluence(cfg: GenConfig, rng: Random, t, no_ctx):
    """Two random reduction prefixes of a good seed rejoin after
    normalization, up to equality of translations."""
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
        return SKIP
    return (None if equiv_gamma(nf1, nf2, c)
            else _failure(t, c, "branches normalized to inequivalent terms"))


def check_translation_simulation(cfg: GenConfig, rng: Random, t, ctx):
    """Non-weakening steps translate to exactly one de Bruijn step;
    weakening steps leave the translation unchanged; steps of the
    propagation-with-Alpha system are simulated in the marked calculus
    within a small search bound."""
    bound = 8
    d = derive(ctx, t)
    a = None
    stepped = _random_step(rng, t, FULL - {"Alpha"})
    if stepped is not None:
        t2, rule = stepped
        a = translate(d)
        b = translate(derive(ctx, t2))
        if rule == W:
            if a != b:
                return "weakening step changed the translation"
        elif b not in db_one_step_reducts(a, LAMBDA_UPSILON):
            return f"{rule} step is not one de Bruijn step"
    stepped = _random_step(rng, t, SIGMA_ALPHA)
    if stepped is None:
        return None
    t2, rule = stepped
    d2 = derive(ctx, t2)
    reached = _search_upsilon2(translate(d, UPSILON2), translate(d2, UPSILON2), bound)
    if reached is None:
        return SKIP
    if not reached:
        return f"{rule} step not simulated within {bound} marked steps"
    # renaming preserves the plain translation up to joining
    if rule == "Alpha" and (db_normalize_upsilon(translate(d) if a is None else a)
                            != db_normalize_upsilon(translate(d2))):
        return "renaming step broke translation joinability"
    return None


def _search_upsilon2(a: DBTerm, goal: DBTerm, bound: int) -> bool | None:
    """Breadth-first reachability in the marked system, True as soon as
    the goal is reached; None when the cap was hit before the goal was
    reached or the bound was exhausted (inconclusive)."""
    if a == goal:
        return True
    frontier = [a]
    seen = {a}
    for _ in range(bound):
        nxt = []
        for u in frontier:
            for v in db_one_step_reducts(u, UPSILON2):
                if v not in seen:
                    if v == goal:
                        return True
                    seen.add(v)
                    nxt.append(v)
                    if len(seen) > _SEARCH_CAP:
                        return None
        frontier = nxt
        if not frontier:
            break
    return False


def check_upsilon_weights(cfg: GenConfig, rng: Random, a, no_ctx, path, rule):
    """Every substitution step drops the weight pair lexicographically;
    the first weight is strict except on ShiftLift."""
    w_a, w_b = weights12(a), weights12(db_apply(a, path, rule))
    good = (w_a[0] >= w_b[0] and (w_a[0], w_a[1]) > (w_b[0], w_b[1]) if rule == "ShiftLift"
            else w_a[0] > w_b[0])
    return None if good else f"{rule}: weights {w_a} -> {w_b} do not certify termination"


def check_lpo_decrease(cfg: GenConfig, rng: Random, a, no_ctx, path, rule):
    """Labelling then comparing with the path order strictly orients every
    step of the marked system."""
    return (None if lpo_gt(label(a), label(db_apply(a, path, rule)))
            else f"{rule}: labelled step is not a path-order descent")


def _joinable(a: DBTerm, b: DBTerm) -> bool:
    # one-pass normal forms: every pair join-lemmas builds is well-formed,
    # where they are those of db_normalize_upsilon (see upsilon_nf)
    return upsilon_nf(a) == upsilon_nf(b)


def _join_pairs(cfg: GenConfig, rng: Random):
    """The identity-absorption and commutation pairs, as one trial of their
    left and right sides in turn.

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
        yield (
            # a[^^^][^^(b/)] ~ a  (lifted shift then lifted slash cancel)
            DComp(DLift(DSlash(b1)), DComp(DLift(DShift()), a1)), a1,
            # a[^^^][^^id] ~ a[^^^]
            DComp(DLift(DId()), DComp(DLift(DShift()), a1)), DComp(DLift(DShift()), a1),
            # a[^^^][^^^^s] ~ a[^^s][^^^]
            DComp(DLift(DLift(s)), DComp(DLift(DShift()), a3)),
            DComp(DLift(DShift()), DComp(DLift(s), a3)),
            # a[b/][s] ~ a[^^s][b[s]/]
            DComp(s, DComp(DSlash(b4), a4)),
            DComp(DSlash(DComp(s, b4)), DComp(DLift(s), a4)),
            # a[id] ~ a
            DComp(DId(), a5), a5,
        )


def check_join_lemmas(cfg: GenConfig, rng: Random, *sides):
    """The identity-absorption and commutation pairs have common reducts,
    and any two one-step reducts of a well-formed term rejoin."""
    for left, right in zip(sides[::2], sides[1::2]):
        if not _joinable(left, right):
            return _failure(left, right, "pair has no common reduct")
    # local confluence of the substitution rules
    n = rng.randint(0, 2)
    t = gen_db(rng, n, rng.randint(2, max(2, cfg.size // 4) * 2))
    reducts = db_one_step_reducts(t, UPSILON)
    if len(reducts) >= 2 and not _joinable(*rng.sample(reducts, 2)):
        return _failure(t, n, "one-step reducts do not rejoin")
    return None


def check_nf_grammar(cfg: GenConfig, rng: Random, t, ctx):
    """The normal-form grammar agrees with the absence of propagation
    redexes, and normal forms of good terms embed into pure syntax."""
    if is_sigma_nf(t) != (not find_redexes(t, SIGMA)):
        return "grammar disagrees with the redex scan"
    nf, _, exhausted = normalize(t, SIGMA, "lo", cfg.fuel)
    if exhausted:
        return SKIP
    if not is_sigma_nf(nf):
        return _failure(nf, ctx, "propagation normal form rejected by the grammar")
    if ctx.is_set:
        nf, _, exhausted = normalize(t, SIGMA_ALPHA, "lo", cfg.fuel)
        if exhausted:
            return SKIP
        try:
            to_pure(nf)
        except ContainsBlock as e:
            return _failure(nf, ctx, str(e))
    return None


def check_oracle_equivalence(cfg: GenConfig, rng: Random, t, no_ctx):
    """Full normalization agrees with the classical reducer on erasures of
    simply typed terms, up to classical alpha congruence."""
    nf, _, exhausted = normalize(t, FULL, "lo", cfg.fuel)
    cnf, cexhausted = classical_normalize(t, cfg.fuel)
    if exhausted or cexhausted:
        return SKIP
    try:
        p = to_pure(nf)
    except ContainsBlock as e:
        return _failure(nf, None, str(e))
    return (None if alpha_eq(p, cnf)
            else _failure(t, fv(t), "engine and classical oracle disagree"))


def _upsilon_term(cfg: GenConfig, rng: Random) -> DBTerm:
    return gen_db(rng, rng.randint(0, 2), rng.randint(2, max(3, cfg.size // 2)))


def _marked_term(cfg: GenConfig, rng: Random) -> DBTerm:
    return gen_db_marked(rng, rng.randint(2, max(3, cfg.size // 3)))


_upsilon_redexes = partial(_each_redex, _upsilon_term, UPSILON)
_marked_redexes = partial(_each_redex, _marked_term, UPSILON2)

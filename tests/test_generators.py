"""The random generators: derivability by construction, coverage, determinism."""

from __future__ import annotations

import hashlib
from collections import Counter
from random import Random

import pytest

from exsub.contexts import format_context
from exsub.debruijn import db_check
from exsub import generators
from exsub.generators import (GenConfig, _choose, gen_db, gen_db_marked, gen_db_sub,
                              gen_simply_typed, gen_subst, gen_wellformed)
from exsub.judgements import derive
from exsub.pure import classical_normalize, is_pure
from exsub.terms import VarRef, node_size


def test_config_rejects_bad_bounds():
    with pytest.raises(ValueError):
        GenConfig(size=0)
    with pytest.raises(ValueError):
        GenConfig(count=-1)


def test_smallest_terms_are_variables_in_scope():
    rng = Random(61)
    cfg = GenConfig(seed=61, size=1)
    for _ in range(100):
        ctx, t = gen_wellformed(cfg, rng)
        if isinstance(t, VarRef):
            assert t.name in ctx


def test_generated_pairs_are_derivable():
    rng = Random(62)
    cfg = GenConfig(seed=62, size=40)
    for _ in range(500):
        ctx, t = gen_wellformed(cfg, rng)
        derive(ctx, t)  # must not raise
        assert node_size(t) <= 2 * cfg.size  # budget is approximate, not wild


def test_rule_coverage_histogram_10k():
    rng = Random(0)
    cfg = GenConfig(seed=0, size=40)
    counts: Counter[str] = Counter()
    nodes = 0
    for _ in range(10_000):
        ctx, t = gen_wellformed(cfg, rng)
        stack = [derive(ctx, t)]
        while stack:
            d = stack.pop()
            counts[d.rule] += 1
            nodes += 1
            stack.extend(d.premises)
    for rule in [f"R{i}" for i in range(1, 11)]:
        assert counts[rule] / nodes >= 0.01, f"{rule} below 1%: {counts[rule]}/{nodes}"


def test_generation_is_deterministic_per_seed():
    cfg = GenConfig(seed=99, size=30)
    assert gen_wellformed(cfg) == gen_wellformed(cfg)
    a = [gen_wellformed(cfg, Random(5)) for _ in range(20)]
    b = [gen_wellformed(cfg, Random(5)) for _ in range(20)]
    assert a == b


def test_gen_subst_output_context():
    rng = Random(63)
    from exsub.generators import gen_context
    from exsub.judgements import derive_subst
    for _ in range(300):
        ctx = gen_context(rng)
        s, delta = gen_subst(rng, ctx, rng.randint(1, 8))
        _, out = derive_subst(ctx, s)
        assert out == delta


def test_gen_db_respects_arity():
    rng = Random(64)
    for _ in range(500):
        n = rng.randint(0, 3)
        a = gen_db(rng, n, rng.randint(1, 20))
        assert db_check(n, a)
        s, m = gen_db_sub(rng, n, rng.randint(1, 8))
        from exsub.debruijn import db_check_sub
        assert db_check_sub(n, s) == m


def test_simply_typed_erasures_are_pure_and_terminating():
    rng = Random(65)
    cfg = GenConfig(seed=65, size=24)
    for _ in range(300):
        t = gen_simply_typed(rng, cfg)
        assert is_pure(t)
        _, exhausted = classical_normalize(t, fuel=5000)
        assert not exhausted


def test_generator_draw_digest():
    # Recorded before the generators drew their kinds from tables.  Sizes 1
    # and 2 of gen_simply_typed reach its fresh binder at the smallest
    # budget; the last draw pins how many numbers the rounds consumed.
    rng, cfg, found = Random(3), GenConfig(), []
    for _ in range(3000):
        ctx, t = gen_wellformed(cfg, rng)
        n = rng.randint(0, 2)
        found.append((format_context(ctx), t, gen_db(rng, n, rng.randint(1, 20)),
                      gen_db_sub(rng, n, rng.randint(1, 8)), gen_simply_typed(rng, cfg),
                      gen_simply_typed(rng, cfg, 1), gen_simply_typed(rng, cfg, 2)))
    found.append(rng.random())
    assert hashlib.sha256(repr(found).encode()).hexdigest() == (
        "0aa0ebc5ef919a44d4bc8c290f2c7080b1caa42f58b4bed0b696b2df3a943ad2")


def test_marked_generator_draw_digest():
    # Recorded while gen_db_marked still spelled out its own substitution
    # grammar; the last draw pins how many numbers the rounds consumed.
    rng, found = Random(3), []
    for size in range(1, 21):
        found.extend(gen_db_marked(rng, size) for _ in range(200))
    found.append(rng.random())
    assert hashlib.sha256(repr(found).encode()).hexdigest() == (
        "173227cfd27a561eb0af911b0b77ebaa2f13aeb883a0dc54c03658e6ce8498a2")


@pytest.mark.parametrize("mix", ["_MIX", "_RAW_MIX", "_DB_MIX", "_MARKED_MIX", "_RAW_DB_MIX",
                                 "_TYPED_MIX"])
def test_each_draw_is_the_one_random_choices_makes(mix):
    mix = getattr(generators, mix)
    kinds = tuple(mix)
    for k in (1, 2, len(kinds)):
        ours, theirs = Random(k), Random(k)
        for _ in range(2000):
            assert _choose(ours, kinds[-k:], mix) == \
                theirs.choices(kinds[-k:], [mix[x] for x in kinds[-k:]])[0]
        assert ours.getstate() == theirs.getstate()

"""Executable termination certificates for the de Bruijn systems.

Two instruments are on display: a multiplicative weight pair that drops
lexicographically on every substitution step, and a labelling of
compositions and marked binders by additive weights under which every
step of the marked system descends in a lexicographic path order.
"""

from random import Random

from exsub import label, lpo_gt, weight, weights12
from exsub.debruijn import (UPSILON, UPSILON2, db_apply, db_find_redexes,
                            print_db)
from exsub.generators import gen_db, gen_db_marked

rng = Random(0)

print("weight pairs along substitution steps (first strict except ShiftLift):")
shown = 0
while shown < 8:
    a = gen_db(rng, rng.randint(0, 2), rng.randint(3, 10))
    for path, rule in db_find_redexes(a, UPSILON)[:1]:
        b = db_apply(a, path, rule)
        print(f"  {rule:10s} {print_db(a):34s} {weights12(a)} -> {weights12(b)}")
        shown += 1
print()

print("path-order descents in the marked system:")
shown = 0
while shown < 8:
    a = gen_db_marked(rng, rng.randint(3, 9))
    for path, rule in db_find_redexes(a, UPSILON2)[:1]:
        b = db_apply(a, path, rule)
        assert lpo_gt(label(a), label(b))
        print(f"  {rule:10s} {print_db(a):34s} w={weight(a)}  descends")
        shown += 1

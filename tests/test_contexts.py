"""Context lattice: goldens, brute-force oracles, order properties.

The order is checked against the reflexive-transitive closure of its two
generating moves on a small exhaustive universe, and the supremum against
a brute-force minimum over all upper bounds there.
"""

from __future__ import annotations

import itertools
from random import Random

from hypothesis import given, settings

from exsub.contexts import (Context, context, ctx_compatible, ctx_le, ctx_sup,
                            format_context, o_lambda)

from conftest import contexts, grow_context, var_names

C = context


def universe(names=("x", "y", "z"), max_local=3) -> list[Context]:
    out = []
    globs = [frozenset(c) for r in range(len(names) + 1)
             for c in itertools.combinations(names, r)]
    locs = [tuple(p) for r in range(max_local + 1)
            for p in itertools.product(names, repeat=r)]
    for g in globs:
        for l in locs:
            out.append(Context(g, l))
    return out


def closure_le(univ: list[Context]) -> set[tuple[Context, Context]]:
    """Reflexive-transitive closure of the two generating moves, computed
    by brute force.  Move one adds a missing global; move two shifts any
    name onto the front of the locals while dropping it from the globals."""
    univ_set = set(univ)
    names = sorted({v for c in univ for v in c.globals} |
                   {v for c in univ for v in c.locals})
    succ: dict[Context, list[Context]] = {}
    for c in univ:
        nxt = []
        for x in names:
            if x not in c.globals:
                up = Context(c.globals | {x}, c.locals)
                if up in univ_set:
                    nxt.append(up)
            up = Context(c.globals - {x}, (x,) + c.locals)
            if up in univ_set:
                nxt.append(up)
        succ[c] = nxt
    reach = set()
    for c in univ:
        seen = {c}
        stack = [c]
        while stack:
            u = stack.pop()
            for v in succ[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        reach.update((c, d) for d in seen)
    return reach


def test_member():
    assert "x" in C({"x", "z"}, ["y"])
    assert "y" in C({"x", "z"}, ["x", "x", "y"])
    assert "w" not in C({"x", "z"}, ["x", "x", "y"])


def test_le_golden_chain():
    chain = [C({"z"}, ["y"]), C({"z", "x"}, ["y"]),
             C({"z"}, ["x", "y"]), C({"z", "x"}, ["x", "y"])]
    for a, b in zip(chain, chain[1:]):
        assert ctx_le(a, b) and not ctx_le(b, a)


def test_le_non_example():
    assert not ctx_le(C({"z"}, ["x", "y"]), C({"z"}, ["y"]))


def test_le_equals_generated_closure_small_universe():
    univ = universe(max_local=2)
    reach = closure_le(univ)
    for a in univ:
        for b in univ:
            assert ctx_le(a, b) == ((a, b) in reach), (a, b)


def test_compatible_goldens():
    assert ctx_compatible(C({"x"}, ["z"]), C({"y", "z"}, []))
    assert not ctx_compatible(C({}, ["x"]), C({}, ["y"]))
    g = C({"x"}, ["y", "z"])
    assert ctx_compatible(g, g)


def test_sup_golden():
    assert ctx_sup(C({"x"}, ["z"]), C({"y", "z"}, [])) == C({"x", "y"}, ["z"])


def test_sup_idempotent():
    g = C({"x", "y"}, [])
    assert ctx_sup(g, g) == g


def test_sup_of_local_and_sliding_global():
    # the recursion slides x out of the global part and into the shared tail
    assert ctx_sup(C({}, ["x", "y"]), C({"x"}, ["y"])) == C({}, ["x", "y"])


def test_sup_exists_iff_compatible_and_is_least_bruteforce():
    univ = universe(names=("x", "y"), max_local=2)
    for a in univ:
        for b in univ:
            s = ctx_sup(a, b)
            assert (s is not None) == ctx_compatible(a, b)
            if s is None:
                continue
            assert ctx_le(a, s) and ctx_le(b, s)
            for u in univ:
                if ctx_le(a, u) and ctx_le(b, u):
                    assert ctx_le(s, u)


def test_o_lambda_goldens():
    assert o_lambda("x", C({"x", "y"}, [])) == C({"y"}, [])
    assert o_lambda("x", C({"x"}, ["x"])) == C({"x"}, [])
    assert o_lambda("x", C({}, ["y"])) is None


@settings(max_examples=400, derandomize=True)
@given(contexts, contexts, contexts)
def test_le_is_partial_order(a, b, c):
    assert ctx_le(a, a)
    if ctx_le(a, b) and ctx_le(b, a):
        assert a == b
    if ctx_le(a, b) and ctx_le(b, c):
        assert ctx_le(a, c)


@settings(max_examples=300, derandomize=True)
@given(contexts, contexts)
def test_order_theoretic_facts(a, b):
    x = "x"
    # pushing the same name preserves and reflects the order
    assert ctx_le(a.push(x), b.push(x)) == ctx_le(a, b)
    # anything above a pushed context ends in the pushed name
    if ctx_le(a.push(x), b):
        assert b.locals and b.top == x
    # anything below a pushed context ends in the name or is a set
    if ctx_le(a, b.push(x)):
        assert a.is_set or a.top == x
    # anything below a set is a set
    if not b.locals and ctx_le(a, b):
        assert a.is_set


@settings(max_examples=300, derandomize=True)
@given(contexts, contexts, var_names)
def test_binder_elimination_distributes_over_sup(a, b, x):
    s = ctx_sup(a, b)
    if s is None:
        return
    lhs = o_lambda(x, s)
    if lhs is None:
        return
    oa, ob = o_lambda(x, a), o_lambda(x, b)
    assert oa is not None and ob is not None
    assert lhs == ctx_sup(oa, ob)


def test_grow_context_produces_upper_bounds():
    rng = Random(7)
    for _ in range(500):
        base = C(frozenset(rng.sample(["x", "y", "z"], rng.randint(0, 3))),
                 [rng.choice("xyz") for _ in range(rng.randint(0, 3))])
        assert ctx_le(base, grow_context(rng, base))


def test_format_context():
    assert format_context(C({"z", "x"}, ["x", "y"])) == "{x,z}; x,y"
    assert format_context(C(set(), [])) == "{}"

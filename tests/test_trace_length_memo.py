r"""The memo of printed lengths that a trace's splices share is exact, and
it is used; and the printer's zipper finds where a step's path leaves the
last one.

Every entry `(node, n)` must hold `n == len(_print(node))` after
every spliced step: a wrong length would put the next splice in the wrong
place.  And the splices should rarely measure a node the memo lacks: the
trace printer hands the splice the redex's extent off its zipper and takes
back the contractum's, each class places its children by its own literal
text, so that only an application's function or a composition's
substitution is ever measured, and a part of the redex is placed only if
the contractum reuses it; and each recipe records the widths of the nodes
it builds around reused parts, which the next steps would otherwise
measure.  On `mult c_k c_k`, k = 4, 8, 12, 16 and 20, that is 0.083,
0.047, 0.030, 0.022 and 0.018 such measurements per step, under the bound
of 0.10; without the recorded widths it was 0.41 to 0.46, and measuring
every redex and every reused part costs about 1.2.
"""

from __future__ import annotations

from random import Random

import pytest

from exsub import rewrite, syntax
from exsub.generators import GenConfig, gen_raw_term, gen_wellformed
from exsub.rewrite import FULL, SIGMA, SIGMA_ALPHA, _shared, normalize

from conftest import mult


def check_memo_after_every_splice(trace, monkeypatch) -> int:
    """Print `trace`, checking the memo after every spliced step; returns
    the number of spliced steps."""
    seen: dict[int, tuple] = {}     # the lengths already checked, by node
    spliced = []

    def checked(*args):
        out = splice(*args)
        memo = args[-1]
        for key, (node, n) in memo.items():
            assert key == id(node)
            hit = seen.get(key)
            if hit is None or hit[0] is not node:
                hit = seen[key] = node, len(syntax._print(node))
            assert n == hit[1], (syntax.print_term(node), n)
        spliced.append(out)
        return out

    splice = rewrite.print_spliced
    with monkeypatch.context() as m:
        m.setattr(rewrite, "print_spliced", checked)
        text = trace.to_text()
    assert text == trace.to_text()      # unchecked, and the same
    return len(spliced)


@pytest.mark.parametrize("rules", [FULL, SIGMA, SIGMA_ALPHA], ids=["full", "sigma", "sigma-alpha"])
def test_memo_entries_are_exact_on_generated_traces(rules, monkeypatch):
    rng, cfg = Random(3), GenConfig(seed=3, size=30)
    spliced = 0
    for _ in range(100):
        for t in (gen_raw_term(rng, rng.randint(2, 40)), gen_wellformed(cfg, rng)[1]):
            _, trace, _ = normalize(t, rules, "lo", 150)
            spliced += check_memo_after_every_splice(trace, monkeypatch)
    assert spliced > 1000


def test_memo_entries_are_exact_on_mult_c8_c8(monkeypatch):
    _, trace, _ = normalize(mult(8), FULL, "lo", 100_000)
    assert check_memo_after_every_splice(trace, monkeypatch) == len(trace.steps) == 488


def misses_per_step(k: int, monkeypatch) -> float:
    """Calls of `_length` on a node with children that the memo lacks, per
    step of the trace of mult c_k c_k."""
    _, trace, _ = normalize(mult(k), FULL, "lo", 100_000)
    length, misses = syntax._length, [0]

    def counted(root, memo):
        if root.CHILDREN:
            hit = memo.get(id(root))
            misses[0] += hit is None or hit[0] is not root
        return length(root, memo)

    with monkeypatch.context() as m:
        for module in (syntax, rewrite):
            if getattr(module, "_length", None) is length:
                m.setattr(module, "_length", counted)
        trace.to_json()
    return misses[0] / len(trace.steps)


@pytest.mark.parametrize("k", [4, 12])
def test_splices_rarely_measure_what_the_memo_lacks(k, monkeypatch):
    assert misses_per_step(k, monkeypatch) < 0.10


def test_shared_prefix_is_the_element_by_element_one():
    rng = Random(5)
    for _ in range(3000):
        a = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 12)))
        b = a[:rng.randint(0, len(a))] + tuple(rng.randint(0, 1)
                                               for _ in range(rng.randint(0, 12)))
        m = 0
        while m < min(len(a), len(b)) and a[m] == b[m]:
            m += 1
        assert _shared(a, b) == _shared(b, a) == m, (a, b)

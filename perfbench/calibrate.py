"""A fixed piece of Python work that measures the host's current speed.

The shared host the benchmark was tuned on changes speed by up to 1.9x, in
phases lasting from under a second to several minutes, so raw times of the
same code spread by 30% and more between runs.  `calibration_s` times work
that is the same on every commit: it imports nothing from exsub and builds,
walks, rewrites and prints trees of frozen dataclasses, with a memo dict
keyed by id, much as the engine does.  The benchmark times it next to each
call and divides the call's time by it; with the cyclic garbage collector
off while it runs, its cost does not depend on what the engine keeps alive.

The quotient is scaled back to seconds by REFERENCE_S, the calibration
time of the tuning host (Python 3.11, 2 vCPUs of a shared Intel Xeon) in
its faster phases.  A scaled time is thus what the call would have taken
on that host, and comparable between runs and commits on one machine.
"""

from __future__ import annotations

import gc
import random
from dataclasses import dataclass
from time import perf_counter

REFERENCE_S = 0.03
TREES, DEPTH, SEED = 20, 14, 1


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class App:
    fun: object
    arg: object


@dataclass(frozen=True)
class Lam:
    var: str
    body: object


def _tree(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.15:
        return Var(rng.choice("xyzuvw"))
    if rng.random() < 0.3:
        return Lam(rng.choice("xyzuvw"), _tree(rng, depth - 1))
    return App(_tree(rng, depth - 1), _tree(rng, depth - 1))


def _free(t, memo: dict) -> frozenset:
    hit = memo.get(id(t))
    if hit is not None:
        return hit
    if isinstance(t, Var):
        r = frozenset((t.name,))
    elif isinstance(t, App):
        r = _free(t.fun, memo) | _free(t.arg, memo)
    else:
        r = _free(t.body, memo) - {t.var}
    memo[id(t)] = r
    return r


def _rename(t, old: str, new: str):
    if isinstance(t, Var):
        return Var(new) if t.name == old else t
    if isinstance(t, App):
        return App(_rename(t.fun, old, new), _rename(t.arg, old, new))
    return t if t.var == old else Lam(t.var, _rename(t.body, old, new))


def _show(t) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, App):
        return f"({_show(t.fun)} {_show(t.arg)})"
    return f"\\{t.var}.{_show(t.body)}"


def _work() -> None:
    rng = random.Random(SEED)
    for _ in range(TREES):     # one at a time, so it never sets the peak RSS
        t = _tree(rng, DEPTH)
        _free(t, {})
        u = _rename(t, "x", "q")
        _free(u, {})
        _show(u)


def calibration_s() -> float:
    """Seconds the fixed work takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _work()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()

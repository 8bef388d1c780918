"""`node_size` walks on its own stack, so it counts terms far deeper than
Python's recursion limit."""

from __future__ import annotations

from exsub.debruijn import DApp, DLam, FreeName, One
from exsub.terms import App, Comp, Lam, VarRef, Weak, node_size

DEPTH = 10_000


def test_small_terms():
    assert node_size(VarRef("x")) == 1
    assert node_size(Comp(Weak("y"), App(VarRef("x"), Lam("z", VarRef("z"))))) == 6


def test_deep_application_chain():
    t = VarRef("x")
    for _ in range(DEPTH):
        t = App(VarRef("f"), t)
    assert node_size(t) == 2 * DEPTH + 1


def test_deep_binder_chain():
    t = VarRef("x")
    for _ in range(DEPTH):
        t = Lam("x", t)
    assert node_size(t) == DEPTH + 1


def test_deep_de_bruijn_chains():
    a, b = One(), One()
    for _ in range(DEPTH):
        a, b = DApp(a, FreeName("f")), DLam(b)
    assert node_size(a) == 2 * DEPTH + 1
    assert node_size(b) == DEPTH + 1

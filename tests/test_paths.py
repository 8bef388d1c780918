"""A path is the tuple of child positions in each parent's ``CHILDREN``.
A position that the node it reaches does not have raises `BadPath` from
every function that follows a path, in both calculi; a negative position
must not address a child from the end.
"""

from __future__ import annotations

import pytest

from exsub.debruijn import DApp, DComp, DLam, DShift, FreeName, One, db_apply
from exsub.rewrite import apply_rule
from exsub.syntax import parse_term
from exsub.terms import BadPath, InvalidRedex, replace_at, subterm_at

NAMED = parse_term(r"(\x. x) y")                      # a Beta redex at the root
DB = DApp(DLam(DComp(DShift(), One())), FreeName("y"))
CASES = {"named": (NAMED, lambda t, p: apply_rule(t, p, "Beta")),
         "debruijn": (DB, lambda a, p: db_apply(a, p, "Beta"))}

# positions the root (two children), its function (one) or a leaf (none)
# does not have
BAD_PATHS = [(2,), (-1,), (-2,), (True,), (False,), ("fn",), (0, 1), (0, -1),
             (1, 0), (0, "body"), (1.0,)]


@pytest.mark.parametrize("calculus", CASES)
@pytest.mark.parametrize("path", BAD_PATHS, ids=repr)
def test_a_position_the_node_does_not_have_raises_bad_path(calculus, path):
    t, apply = CASES[calculus]
    with pytest.raises(BadPath):
        subterm_at(t, path)
    with pytest.raises(BadPath):
        replace_at(t, path, t)
    with pytest.raises(BadPath):
        apply(t, path)


@pytest.mark.parametrize("calculus", CASES)
def test_positions_address_children_in_scan_order(calculus):
    t, apply = CASES[calculus]
    assert subterm_at(t, ()) is t
    assert subterm_at(t, (0,)) is t.fn and subterm_at(t, (1,)) is t.arg
    assert subterm_at(t, (0, 0)) is t.fn.body
    assert replace_at(t, (1,), t.fn).arg is t.fn
    assert apply(t, ()) != t
    with pytest.raises(InvalidRedex):    # a real position, but not a redex
        apply(t, (0,))


def test_bad_path_names_the_node_and_the_position():
    with pytest.raises(BadPath, match=r"Lam has no child -1"):
        subterm_at(NAMED, (0, -1))

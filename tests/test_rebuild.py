"""A one-level rebuild calls the node's constructor with the node's field
values, one of them replaced.  That builds the value the constructor would
only while every node class of both calculi is a plain frozen `Value`: its
slots are its fields and then its cache slots, which the constructor sets
to None, it has no instance __dict__ and no __post_init__, and `vars` gives
exactly its fields.
"""

from __future__ import annotations

import pytest

from exsub import debruijn, terms
from exsub.terms import Value, _with_child

NODE_CLASSES = [cls for mod in (terms, debruijn) for cls in vars(mod).values()
                if isinstance(cls, type) and cls.__module__ == mod.__name__
                and "CHILDREN" in vars(cls)]
# two distinct leaves of each calculus
LEAVES = {terms: (terms.VarRef("a"), terms.VarRef("b")),
          debruijn: (debruijn.One(), debruijn.FreeName("b"))}


def test_every_node_class_is_found():
    assert len(NODE_CLASSES) == 18


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda c: c.__name__)
def test_node_class_is_a_plain_frozen_dataclass(cls):
    # the name is kept from when the nodes were dataclasses; the premise
    # is the same: a frozen record whose fields are its annotations, now
    # in slots, then its cache slots (a term's `fv`, and `clean` on every
    # class with children), with no instance __dict__
    assert issubclass(cls, Value)
    fields = list(cls.__annotations__)
    caches = ["fv"] * (cls in terms.Term.__args__) + ["clean"] * bool(cls.CHILDREN)
    slots = [s for k in cls.__mro__ for s in vars(k).get("__slots__", ())]
    assert slots == fields + caches
    assert list(cls.__match_args__) == fields
    assert cls.__dictoffset__ == 0
    assert not hasattr(cls, "__post_init__")
    kids = set(cls.CHILDREN)
    node = cls(*(LEAVES[terms][0] if f in kids else "x" for f in cls.__match_args__))
    assert list(vars(node)) == fields
    assert all(getattr(node, c) is None for c in caches)


@pytest.mark.parametrize("cls", [c for c in NODE_CLASSES if c.CHILDREN],
                         ids=lambda c: c.__name__)
def test_rebuild_equals_the_constructor(cls):
    old, new = LEAVES[terms if cls.__module__ == terms.__name__ else debruijn]
    kids = set(cls.CHILDREN)
    args = {f: old if f in kids else "x" for f in cls.__match_args__}
    node = cls(**args)
    for field in kids:
        rebuilt = _with_child(node, field, new)
        expected = cls(**{**args, field: new})
        assert type(rebuilt) is cls and vars(rebuilt) == vars(expected)
        assert rebuilt == expected and hash(rebuilt) == hash(expected)
        assert getattr(node, field) == old      # the original is untouched
        with pytest.raises(AttributeError):
            setattr(rebuilt, field, old)


def test_rebuild_code_is_compiled_once_per_shape():
    # every child field of both calculi is field 0 of 1, 0 of 2 or 1 of 2;
    # the rebuilders of one shape run one compiled code, renamed per class
    by_shape = {}
    for cls in NODE_CLASSES:
        for field in cls.CHILDREN:
            shape = len(cls.__match_args__), cls.__match_args__.index(field)
            by_shape.setdefault(shape, []).append(cls._rebuild[field].__code__)
    assert set(by_shape) == {(1, 0), (2, 0), (2, 1)}
    for (n, k), codes in by_shape.items():
        template = terms._rebuilder(n, k)
        assert len(codes) > 1
        for code in codes:
            assert code.replace(co_names=template.co_names) == template


def test_a_class_of_a_known_shape_compiles_nothing(monkeypatch):
    compiled = []
    monkeypatch.setattr(terms, "exec", lambda *args: compiled.append(args), raising=False)

    class Pair(Value):
        left: object
        right: object
        CHILDREN = ("left", "right")

    assert compiled == []
    assert Pair._rebuild["left"](Pair(1, 2), 3) == Pair(3, 2)
    assert Pair._rebuild["right"](Pair(1, 2), 3) == Pair(1, 3)
    assert _with_child(Pair(1, 2), "right", 4) == Pair(1, 4)

"""Every record of the package is a `terms.Value`.  It must behave as the
frozen dataclass it replaced: the references below are frozen dataclasses
with the same fields, built with `dataclasses.make_dataclass`, and `repr`,
`==` and `hash` must agree with theirs on generated terms, contexts and
derivations and on a sample of every other record.  Importing the CLI
must load none of `dataclasses`, `inspect` and `typing`.
"""

from __future__ import annotations

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
import typing
from pathlib import Path
from random import Random

import pytest

from exsub import contexts, debruijn, generators, judgements, rewrite, suites, syntax, terms
from exsub.contexts import Context
from exsub.debruijn import DComp, DLift, DShift, FreeName, One
from exsub.freevars import fv
from exsub.generators import GenConfig, gen_context, gen_db_marked, gen_raw_term
from exsub.judgements import Derivation, NotDerivable, derive
from exsub.rewrite import SIGMA, Trace, normalize
from exsub.suites import Failure, TrialReport, run_suite
from exsub.terms import App, Comp, Lam, Lift, Rename, Slash, Value, VarRef, Weak

from conftest import all_nodes, numeral, shifted_binders

MODULES = (contexts, debruijn, generators, judgements, rewrite, suites, syntax, terms)
NO_DEFAULT = object()

# each record's fields, in order, with their defaults
FIELDS = {
    terms.VarRef: ("name",), terms.App: ("fn", "arg"), terms.Lam: ("var", "body"),
    terms.Comp: ("sub", "body"), terms.Slash: ("term", "var"), terms.Weak: ("var",),
    terms.Rename: ("new", "old"), terms.Lift: ("sub", "var"),
    debruijn.FreeName: ("name",), debruijn.One: (), debruijn.DApp: ("fn", "arg"),
    debruijn.DLam: ("body",), debruijn.DBoldLam: ("body",), debruijn.DComp: ("sub", "body"),
    debruijn.DSlash: ("term",), debruijn.DShift: (), debruijn.DId: (),
    debruijn.DLift: ("sub",),
    Context: ("globals", "locals"),
    Derivation: ("rule", "ctx", "subject", "out", "premises"),
    Trace: ("initial", "steps"),
    Failure: ("trial", "term", "context", "detail", "trace"),
    TrialReport: ("suite", "seed", "trials", "passes", "failures", "inconclusives"),
    GenConfig: ("seed", "size", "count", "fuel"),
}
DEFAULTS = {
    Failure: {"trace": ()},
    GenConfig: {"seed": 0, "size": 40, "count": 1000, "fuel": 10000},
}


def _spec(cls, f):
    default = DEFAULTS.get(cls, {}).get(f, NO_DEFAULT)
    if default is NO_DEFAULT:
        return (f, object)
    return (f, object, dataclasses.field(default=default))


REFS = {cls: dataclasses.make_dataclass(cls.__name__, [_spec(cls, f) for f in fields],
                                        frozen=True)
        for cls, fields in FIELDS.items()}


def ref(v):
    """`v` rebuilt from the reference dataclasses, all the way down."""
    if isinstance(v, Value):
        return REFS[type(v)](*(ref(x) for x in vars(v).values()))
    if type(v) is tuple:
        return tuple(ref(x) for x in v)
    return v


def agree(a, b=None):
    """`a` prints and hashes as its reference, and `a == b` as theirs."""
    assert repr(a) == repr(ref(a))
    assert hash(a) == hash(ref(a))
    if b is not None:
        assert (a == b) == (ref(a) == ref(b))
        assert (a != b) == (ref(a) != ref(b))


def samples() -> list:
    """At least one instance of every record class."""
    t = App(Lam("x", Comp(Slash(VarRef("y"), "x"), VarRef("x"))), VarRef("z"))
    ctx = Context(frozenset({"y", "z"}), ("w",))
    _, trace, _ = normalize(Comp(Lift(Rename("y", "x"), "q"), Lam("q", VarRef("q"))),
                            SIGMA, fuel=20)
    fail = Failure(3, "x", "x;", "broken", ("Beta 0 x",))
    db = DComp(DLift(DShift()), debruijn.DApp(debruijn.DLam(One()),
                                              debruijn.DBoldLam(FreeName("a"))))
    return [*all_nodes(t), Weak("x"), *all_nodes(Lift(Rename("a", "b"), "c")), *all_nodes(db),
            debruijn.DSlash(One()), debruijn.DId(),
            ctx, derive(ctx, Lam("x", VarRef("y"))), trace, fail,
            TrialReport("s", 0, 2, 1, (fail,), 0), GenConfig(seed=5)]


SAMPLES = samples()
# what `eval` needs to read back the repr of any sample
EVAL_NS = {cls.__name__: cls for cls in FIELDS} | {"frozenset": frozenset}


def test_every_record_is_a_value_with_the_reference_fields():
    found = {c for m in MODULES for c in vars(m).values()
             if isinstance(c, type) and issubclass(c, Value) and c is not Value}
    assert found == set(FIELDS) and len(FIELDS) == 24
    assert {type(s) for s in SAMPLES} == found
    for cls, fields in FIELDS.items():
        assert cls.__match_args__ == fields == REFS[cls].__match_args__
        assert not hasattr(cls, "__dataclass_fields__")


def test_generated_terms_contexts_and_derivations_agree_with_the_reference():
    rng = Random(0)
    derived = 0
    prev = VarRef("x")
    for i in range(1000):
        size = rng.randint(1, 40)
        t = gen_raw_term(Random(i), size)
        twin = gen_raw_term(Random(i), size)      # equal, but built anew
        assert t == twin and t is not twin and hash(t) == hash(twin)
        for a, b in zip(all_nodes(t), all_nodes(twin)):
            agree(a, b)
        for a, b in zip(all_nodes(t), all_nodes(prev)):
            agree(a, b)
        prev = t
        for ctx in (fv(t), gen_context(rng)):
            if ctx is None:
                continue
            agree(ctx, Context(ctx.globals, ctx.locals))
            try:
                d = derive(ctx, t)
            except NotDerivable:
                continue
            agree(d, derive(Context(ctx.globals, ctx.locals), twin))
            derived += 1
    assert derived > 300


def test_generated_de_bruijn_terms_agree_with_the_reference():
    rng = Random(1)
    prev = One()
    for _ in range(1000):
        state = rng.getstate()
        t = gen_db_marked(rng, rng.randint(1, 40))
        after = rng.getstate()
        rng.setstate(state)
        twin = gen_db_marked(rng, rng.randint(1, 40))
        assert rng.getstate() == after
        assert t == twin and t is not twin
        for a, b in zip(all_nodes(t), all_nodes(twin)):
            agree(a, b)
        for a, b in zip(all_nodes(t), all_nodes(prev)):
            agree(a, b)
        prev = t


@pytest.mark.parametrize("v", SAMPLES, ids=lambda v: type(v).__name__)
def test_every_record_agrees_with_the_reference(v):
    agree(v, v)
    agree(v, copy.copy(v))
    assert (v == 0) is False and v.__eq__(0) is NotImplemented
    other = next(s for s in SAMPLES if type(s) is not type(v))
    agree(v, other)


def test_a_suite_report_agrees_with_the_reference():
    report = run_suite("fv-monotone", GenConfig(count=5))
    agree(report, run_suite("fv-monotone", GenConfig(count=5)))


@pytest.mark.parametrize("v", SAMPLES, ids=lambda v: type(v).__name__)
def test_keyword_construction(v):
    cls = type(v)
    kw = vars(v)
    assert cls(**kw) == v == cls(*kw.values())
    assert list(vars(cls(**kw))) == list(FIELDS[cls])
    with pytest.raises(TypeError):
        cls(**kw, extra=1)
    required = [f for f in FIELDS[cls] if f not in DEFAULTS.get(cls, {})]
    if required:
        with pytest.raises(TypeError):
            cls(**{f: kw[f] for f in FIELDS[cls] if f != required[-1]})


def test_defaults():
    assert Failure(1, "t", "c", "d") == Failure(1, "t", "c", "d", ())
    assert Failure(1, "t", "c", "d").trace == ()
    g = GenConfig()
    for f, default in DEFAULTS[GenConfig].items():
        assert getattr(g, f) == default
    assert repr(g) == repr(REFS[GenConfig]()) and g == GenConfig(**vars(REFS[GenConfig]()))
    for bound in ("size", "count", "fuel"):
        with pytest.raises(ValueError):
            GenConfig(**{bound: 0})


def test_a_field_without_a_default_may_not_follow_one_with_a_default():
    with pytest.raises(TypeError):
        class Bad(Value):
            a: int = 0
            b: int


@pytest.mark.parametrize("v", SAMPLES, ids=lambda v: type(v).__name__)
def test_assignment_and_deletion_raise(v):
    before = dict(vars(v))
    for f in (*FIELDS[type(v)], "extra"):
        with pytest.raises(AttributeError):
            setattr(v, f, None)
        with pytest.raises(AttributeError):
            delattr(v, f)
    assert vars(v) == before


def test_a_cache_slot_is_no_field():
    # a term whose cache slots are filled, by `fv` and by a walk's mark,
    # compares, hashes, prints and copies as one whose slots are empty
    def make():
        return App(Lam("x", Comp(Slash(VarRef("y"), "x"), VarRef("x"))), VarRef("z"))
    t, fresh = make(), make()
    fv(t)
    terms.set_cache(t, "clean", len)
    assert t.fv is not None and t.clean is len
    assert fresh.fv is None and fresh.clean is None
    assert t == fresh and hash(t) == hash(fresh) and repr(t) == repr(fresh)
    assert vars(t) == vars(fresh) and list(vars(t)) == ["fn", "arg"]
    copies = [copy.copy(t), copy.deepcopy(t)]
    copies += [pickle.loads(pickle.dumps(t, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for c in copies:
        assert c == t and repr(c) == repr(t)
        assert c.fv is None and c.clean is None
    for name in ("fv", "clean"):
        with pytest.raises(AttributeError):
            setattr(t, name, None)
        with pytest.raises(AttributeError):
            delattr(t, name)
    assert t.fv == fv(fresh) and t.clean is len


def test_no_record_has_an_instance_dict():
    for cls in FIELDS:
        assert cls.__dictoffset__ == 0, cls.__name__


@pytest.mark.parametrize("v", SAMPLES, ids=lambda v: type(v).__name__)
def test_writing_into_vars_leaves_the_record_unchanged(v):
    before, h = repr(v), hash(v)
    outer = App(v, v)
    held = {v, outer}
    d = vars(v)
    for f in FIELDS[type(v)]:
        d[f] = "q"
    d["extra"] = "q"
    assert repr(v) == before and hash(v) == h
    assert v in held and outer in held
    assert list(vars(v)) == list(FIELDS[type(v)])


@pytest.mark.parametrize("v", SAMPLES, ids=lambda v: type(v).__name__)
def test_copy_and_pickle_round_trip(v):
    copies = [copy.copy(v), copy.deepcopy(v)]
    # protocols 0 and 1 cannot pickle a Trace's steps, which have __slots__
    copies += [pickle.loads(pickle.dumps(v, p)) for p in range(2, pickle.HIGHEST_PROTOCOL + 1)]
    for c in copies:
        assert type(c) is type(v) and c == v and hash(c) == hash(v)
        assert list(vars(c)) == list(vars(v))
        if "frozenset(" in repr(v):
            # a rebuilt frozenset may iterate, and so print, in another order
            assert eval(repr(c), EVAL_NS) == v
        else:
            assert repr(c) == repr(v)


def test_positional_match_patterns():
    t = App(Lam("x", VarRef("x")), Comp(Weak("y"), VarRef("z")))
    match t:
        case App(Lam(x, VarRef(y)), Comp(Weak(w), body)):
            assert (x, y, w, body) == ("x", "x", "y", VarRef("z"))
        case _:
            pytest.fail("no match")
    match Slash(VarRef("a"), "b"), Rename("n", "o"), Lift(Weak("p"), "q"):
        case Slash(VarRef(a), b), Rename(n, o), Lift(Weak(p), q):
            assert (a, b, n, o, p, q) == ("a", "b", "n", "o", "p", "q")
        case _:
            pytest.fail("no match")
    match DComp(DLift(DShift()), One()):
        case DComp(DLift(DShift()), One()):
            pass
        case _:
            pytest.fail("no match")
    match Context(frozenset({"x"}), ("y",)):
        case Context(g, (top,)):
            assert g == {"x"} and top == "y"
        case _:
            pytest.fail("no match")
    match Failure(1, "t", "c", "d"):
        case Failure(trial, _, _, detail, trace):
            assert (trial, detail, trace) == (1, "d", ())
        case _:
            pytest.fail("no match")
    match VarRef("x"):
        case FreeName(_):
            pytest.fail("matched another class")
        case Lam(_, _):
            pytest.fail("matched another class")
    with pytest.raises(TypeError):
        match One():
            case One(_):
                pass


def test_type_hints_resolve_to_the_fields():
    # a record's annotations are exactly its fields, so evaluating them needs
    # no name that its module does not bind
    classes, stack = [], [Value]
    while stack:
        subs = stack.pop().__subclasses__()
        classes += subs
        stack += subs
    assert len(classes) == 24 and set(classes) == set(FIELDS)
    for cls in classes:
        assert tuple(typing.get_type_hints(cls)) == cls.__match_args__ == FIELDS[cls]


def test_importing_the_cli_loads_no_dataclasses():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys, exsub.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    r = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                       capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


# c_400 is what `mult c_20 c_20` normalizes to
@pytest.mark.parametrize("make, n, other", [(numeral, 400, "y"),
                                             (shifted_binders, 10**4, FreeName("y"))],
                         ids=["c_400", "10^4 binders"])
def test_equality_and_hash_answer_past_the_recursion_limit(make, n, other):
    a, b, c = make(n), make(n), make(n, other)
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != c and not a == c
    assert (a, 1) == (b, 1) and len({a, b, c}) == 2


def test_the_loops_give_the_recursive_answers():
    a = numeral(400)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(10_000)
    try:
        recursive = hash(tuple(a.__dict__.values()))
    finally:
        sys.setrecursionlimit(limit)
    assert terms._deep_hash(a) == recursive == hash(a)
    for v in SAMPLES:
        assert terms._deep_hash(v) == hash(v)
        assert terms._deep_eq(v, copy.copy(v))
        assert terms._deep_eq((v, 1), (copy.deepcopy(v), 1))
    assert not terms._deep_eq(a, numeral(400, "y"))
    assert not terms._deep_eq(a, numeral(399))

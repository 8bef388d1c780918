r"""The printer: its iterative core against the recursive definition, the
print memo that a trace shares across its steps, and terms deeper than the
recursion limit.

`spec_term`/`spec_subst` below are the printer's definition, written as the
plain recursion over the grammar; the library's printer must agree with it
everywhere, and a trace must print each step exactly as a fresh
`print_term` of that step's result would.
"""

from __future__ import annotations

import copy
import itertools
import json
from random import Random

import pytest

from exsub import rewrite, syntax
from exsub.cli import main
from exsub.generators import GenConfig, gen_raw_subst, gen_raw_term, gen_wellformed
from exsub.rewrite import (FULL, RULE_SETS, SIGMA, SIGMA_ALPHA, Trace, TraceStep, _shared,
                           normalize)
from exsub.syntax import child_extent, parse_term, print_spliced, print_subst, print_term
from exsub.terms import (App, Comp, InvalidRedex, Lam, Lift, Rename, Slash, VarRef, Weak,
                         children, node_size, path_indices, replace_at, subterm_at)

from conftest import mult


def spec_term(t) -> str:
    match t:
        case VarRef(x):
            return x
        case App(f, a):
            left = spec_term(f) if isinstance(f, (App, VarRef)) else f"({spec_term(f)})"
            right = a.name if isinstance(a, VarRef) else f"({spec_term(a)})"
            return f"{left} {right}"
        case Lam(x, b):
            return f"\\{x}. {spec_term(b)}"
        case Comp(s, b):
            return f"{spec_subst(s)} * {spec_term(b)}"
    raise TypeError(t)


def spec_subst(s) -> str:
    match s:
        case Slash(t, x):
            return f"[{spec_term(t)}/{x}]"
        case Weak(x):
            return f"W {x}"
        case Rename(y, x):
            return f"{{{y} {x}}}"
        case Lift(inner, x):
            return f"{spec_subst(inner)}^{x}"
    raise TypeError(s)


def test_printer_matches_the_recursive_definition():
    rng = Random(0)
    for _ in range(3000):
        t = gen_raw_term(rng, rng.randint(1, 40))
        assert print_term(t) == spec_term(t)
        s = gen_raw_subst(rng, rng.randint(1, 20))
        assert print_subst(s) == spec_subst(s)


def positions(t, text, memo):
    """Each node of `t`, whose text is `text`, with its path, its parent, its
    child index there and where its text starts and ends."""
    stack = [((), None, 0, t, 0, len(text))]
    while stack:
        path, parent, k, u, start, end = stack.pop()
        yield path, parent, k, u, start, end
        for i in range(len(u.CHILDREN)):
            c, at, to = child_extent(u, i, start, end, memo)
            stack.append((path + (i,), u, i, c, at, to))


def printed(u) -> str:
    return print_subst(u) if type(u) in (Slash, Weak, Rename, Lift) else print_term(u)


def test_child_extents_match_fresh_printing():
    # each class places its children by its own literal text; an argument
    # or a function printed in parentheses lies inside them; and given
    # where one child of a node with two lies, the other is placed without
    # measuring anything
    rng, memo = Random(2), {}
    bare = ((VarRef, App), (VarRef,))      # bare as the function, as the argument
    for _ in range(1500):
        for t in (gen_raw_term(rng, rng.randint(1, 30)), gen_raw_subst(rng, rng.randint(1, 15))):
            text = printed(t)
            spans = {path: (u, start, end)
                     for path, _, _, u, start, end in positions(t, text, memo)}
            for path, (u, start, end) in spans.items():
                assert u is subterm_at(t, path)
                assert text[start:end] == printed(u)
                if not path:
                    continue
                parent, p_start, p_end = spans[path[:-1]]
                k = path[-1]
                if type(parent) is App and type(u) not in bare[k]:
                    assert text[start - 1] + text[end] == "()"
                if len(parent.CHILDREN) == 2:
                    unmeasured = {}
                    assert child_extent(parent, 1 - k, p_start, p_end, unmeasured,
                                        (start, end)) == spans[path[:-1] + (1 - k,)]
                    assert unmeasured == {}


def contracta(old) -> list:
    """What each rule that has a splice recipe contracts `old` to, reading
    the fields that the rule reads whatever classes `old` has, where it
    has them: so a recipe also meets redexes whose classes differ from its
    rule's left-hand side, as after an edit of `rewrite._SHAPE_RULE`."""
    news = []
    for rule in rewrite._SPLICE:
        try:
            news.append(rewrite._CONTRACT[rule](old))
        except (AttributeError, InvalidRedex):
            pass
    return news


def test_spliced_printing_matches_fresh_printing():
    # every node of random terms is replaced by a random tree, by one built
    # around its own children and grandchildren, as a contractum is, and by
    # each rule's contractum read off its fields; every recipe of
    # `rewrite._SPLICE` answers None or the new node's text, and the first
    # text, if any, is spliced; one memo of lengths serves all of them
    rng, memo, recipes = Random(1), {}, list(rewrite._SPLICE.values())
    answered = 0
    for _ in range(300):
        t = gen_raw_term(rng, rng.randint(1, 30))
        text = print_term(t)
        for path, parent, k, old, start, end in positions(t, text, memo):
            if type(old) in (Slash, Weak, Rename, Lift):
                news = [gen_raw_subst(rng, rng.randint(1, 6))]
                news.append(Lift(news[0], "q"))
            else:
                parts = [c for _, c in children(old)]
                parts += [g for c in parts for _, g in children(c)]
                terms = [u for u in parts if type(u) in (VarRef, App, Lam, Comp)]
                a, b = rng.choice(terms or [VarRef("v")]), rng.choice(terms + [VarRef("w")])
                news = [gen_raw_term(rng, rng.randint(1, 6)), a, App(a, b), App(b, a),
                        Lam("z", a), Comp(Slash(b, "y"), a), *contracta(old)]
            for new in news:
                assert text[start:end] == printed(old)
                outs = [r(old, new, text, start, end, memo) for r in recipes]
                out = next((o for o in outs if o is not None), None)
                assert all(o is None or o == out == printed(new) for o in outs)
                answered += out is not None
                spliced, at, to = print_spliced(text, start, end, parent, k, old, new, out,
                                                memo)
                assert spliced == print_term(replace_at(t, path, new))
                assert spliced[at:to] == printed(new)
    assert answered > 1000


@pytest.mark.parametrize("bad, message", [
    (Weak("x"), "not a term: Weak(var='x')"),
    (App(VarRef("x"), Weak("y")), "not a term: Weak(var='y')"),
    (Lam("x", Rename("y", "z")), "not a term: Rename(new='y', old='z')"),
    (Comp(VarRef("x"), VarRef("y")), "not a substitution: VarRef(name='x')"),
    (Comp(Lift(VarRef("x"), "y"), VarRef("z")), "not a substitution: VarRef(name='x')"),
    (Comp(Slash(Weak("x"), "y"), VarRef("z")), "not a term: Weak(var='x')"),
])
def test_printing_a_malformed_tree_is_a_type_error(bad, message):
    with pytest.raises(TypeError, match=message.replace("(", r"\(").replace(")", r"\)")):
        print_term(bad)
    with pytest.raises(TypeError):
        print_spliced("x", 0, 1, None, 0, VarRef("x"), bad, None, {})


def test_print_subst_rejects_a_term():
    with pytest.raises(TypeError, match="not a substitution"):
        print_subst(VarRef("x"))


# --- traces ---------------------------------------------------------------

def fresh_text(trace) -> str:
    lines = [print_term(trace.initial)]
    for s in trace.steps:
        p = ".".join(str(i) for i in path_indices(s.at)) or "-"
        lines.append(f"{s.rule}\t{p}\t{s.fresh or '-'}\t{print_term(s.result)}")
    return "\n".join(lines)


def fresh_json(trace) -> dict:
    return {"initial": print_term(trace.initial),
            "steps": [{"ruleName": s.rule, "pathAsChildIndices": path_indices(s.at),
                       "freshVariableOrNull": s.fresh, "printedTerm": print_term(s.result)}
                      for s in trace.steps]}


@pytest.mark.parametrize("strategy", ["lo", "ri", 1], ids=["lo", "ri", "index:1"])
@pytest.mark.parametrize("name", sorted(RULE_SETS))
def test_trace_prints_each_step_as_a_fresh_print(name, strategy):
    # ri makes steps away from the last one, and App steps share the
    # substitution between both sides of their result
    rules = RULE_SETS[name]
    rng, cfg = Random(7), GenConfig(seed=7, size=20)
    for _ in range(40):
        for t in (gen_raw_term(rng, rng.randint(2, 30)), gen_wellformed(cfg, rng)[1]):
            _, trace, _ = normalize(t, rules, strategy, 60)
            assert trace.to_text() == fresh_text(trace)
            assert trace.to_json() == fresh_json(trace)


def turns(trace) -> set[tuple[str, str]]:
    """The class of each node where a step's path leaves the last one for
    another child, with the way it turns there, for a trace already printed
    (reading a result drops what a splice reads)."""
    found, last, before = set(), (), trace.initial
    for s in trace.steps:
        m = _shared(s.at, last)
        if m < len(s.at) and m < len(last):
            found.add((type(subterm_at(before, s.at[:m])).__name__,
                       "right" if s.at[m] > last[m] else "left"))
        last, before = s.at, s.result
    return found


def test_traces_that_turn_at_either_child_print_as_fresh_prints():
    # at a turn the printer places the new child from the old one's extent;
    # lo turns right at both kinds of frame with two children, after
    # resuming above a contractum, ri turns left, the composition below
    # turns left once its body is done, and the last term turns right past
    # a function printed in parentheses
    binders = parse_term(r"(\x. \z. x x) (\x. \z. x x)")
    comp = parse_term(r"[(\x. x) y/z] * ((\x. x) w)")
    cases = [(mult(4), FULL, "lo"), (binders, FULL, "lo"), (mult(4), FULL, "ri"),
             (binders, FULL, "ri"), (comp, FULL, "lo"), (comp, FULL, "ri"),
             (parse_term(r"(\q. [y/x] * x) ([y/x] * x)"), SIGMA, "lo")]
    seen = set()
    for term, rules, strategy in cases:
        _, trace, _ = normalize(term, rules, strategy, 300)
        assert trace.to_text() == fresh_text(normalize(term, rules, strategy, 300)[1])
        assert trace.to_json() == fresh_json(trace)
        seen |= turns(trace)
    assert seen == {(c, way) for c in ("App", "Comp") for way in ("left", "right")}


def test_trace_built_by_hand_prints_each_step_as_a_fresh_print():
    # the steps are not reductions, and the second path does not even apply
    # to the term before it
    x, y = parse_term("x"), parse_term(r"(\x. x) y")
    trace = Trace(y, (TraceStep("Beta", (), None, x),
                      TraceStep("Var", (0, 0), None, y),
                      TraceStep("Beta", (), None, x)))
    assert trace.to_text() == fresh_text(trace)
    assert trace.to_json() == fresh_json(trace)
    # each path's text is formatted from where it leaves the one before:
    # these go deeper, back to a strict prefix, to the root, and off a
    # sibling at depths 2 and 3; one rule name is outside ALL_RULES
    paths = [(1,), (1, 0, 1, 1), (1, 0), (), (0, 1, 1, 0), (0, 1, 0),
             (0, 1, 0, 1), (0, 1, 0, 0), (0,), (0, 0)]
    rules = ["Beta", "App", "Lambda", "Var", 'Eta "\u03b7"\\', "W", "Alpha",
             "Shift", "Var", "Beta"]
    trace = Trace(y, tuple(TraceStep(r, p, "z" if r == "Alpha" else None, x if i % 2 else y)
                           for i, (r, p) in enumerate(zip(rules, paths))))
    assert trace.to_text() == fresh_text(trace)
    assert trace.to_json() == fresh_json(trace)
    assert trace.dumps() == json.dumps(fresh_json(trace), indent=2)


def spliced_steps(trace, monkeypatch) -> int:
    """How many steps of `trace` print as a splice of the step before."""
    calls = []

    def spy(*args):
        calls.append(args)
        return print_spliced(*args)

    monkeypatch.setattr(rewrite, "print_spliced", spy)
    assert trace.to_json() == fresh_json(trace)
    return len(calls)


def test_trace_built_by_hand_with_a_changed_sibling_prints_in_full(monkeypatch):
    # both steps contract the redex at the same path, but the second result
    # also has another argument, off that path; a step built by hand holds
    # no contractum, so neither is spliced
    t, at = parse_term(r"(\x. x) y z"), (0,)
    changed = parse_term(r"([y/x] * x) w")
    good = Trace(t, (TraceStep("Beta", at, None, replace_at(t, at, changed.fn)),))
    bad = Trace(t, (TraceStep("Beta", at, None, changed),))
    assert spliced_steps(good, monkeypatch) == 0
    assert spliced_steps(bad, monkeypatch) == 0
    assert bad.to_text().splitlines()[-1] == f"Beta\t0\t-\t{print_term(changed)}"


@pytest.mark.parametrize("strategy", ["lo", "ri"])
def test_engine_steps_after_another_predecessor_print_in_full(strategy, monkeypatch):
    # a step of `normalize` is linked to the step before it; placed after
    # another step or term, it is printed from its result, not spliced onto
    # the text of the step it follows
    term, omega = mult(3), parse_term(r"(\x. x x) (\x. x x)")
    s1, s2 = normalize(term, FULL, strategy, 2)[1].steps
    swapped = Trace(term, (s2, s1))
    assert swapped.to_text() == fresh_text(swapped)
    steps = normalize(term, FULL, strategy, 40)[1].steps[20:]
    moved = Trace(omega, steps)
    assert spliced_steps(moved, monkeypatch) == len(steps) - 1


@pytest.mark.parametrize("form", ["text", "json"])
def test_a_spliced_step_compares_its_path_with_the_last_once(form, monkeypatch):
    # the printer hands the prefix it shares with the last path on to the
    # path's formatting; a step printed in full, and the one after it, hand
    # on 0, as the printer then knows no last path
    _, trace, _ = normalize(mult(3), FULL, "lo", 300)
    _, copy, _ = normalize(mult(3), FULL, "lo", 300)
    steps = list(trace.steps)
    steps[40] = TraceStep(steps[40].rule, steps[40].at, steps[40].fresh, copy.steps[40].result)
    mixed = Trace(trace.initial, tuple(steps))
    calls, shared = [], rewrite._shared

    def counted(a, b):
        calls.append((a, b))
        return shared(a, b)

    monkeypatch.setattr(rewrite, "_shared", counted)
    text = "".join(mixed.pieces(form))
    assert len(calls) == len(steps) - 2
    monkeypatch.undo()
    assert text == (fresh_text(mixed) if form == "text"
                    else json.dumps(fresh_json(mixed), indent=2))


@pytest.mark.parametrize("strategy", ["ri", 1], ids=["ri", "index:1"])
def test_eager_omega_trace_is_spliced(strategy, monkeypatch):
    # the rescanning strategies make replayed steps, as the lo walk does;
    # omega has one redex, so index:1 reduces the second of two omegas
    omega = parse_term(r"(\x. x x) (\x. x x)")
    _, trace, _ = normalize(omega if strategy == "ri" else App(omega, omega), FULL,
                            strategy, 50)
    assert spliced_steps(trace, monkeypatch) == len(trace.steps) == 50


@pytest.mark.parametrize("strategy", ["lo", "ri", 1], ids=["lo", "ri", "index:1"])
def test_trace_whose_results_were_read_prints_in_full(strategy, monkeypatch):
    # reading a result drops the step's redex; a lo step keeps its links,
    # so the printer finds the redex by its path and every step is spliced,
    # while a read drops the links of an ri or index:K step, so none is;
    # the bytes are those of a trace printed before any result was read
    term = mult(3)
    fresh = normalize(term, FULL, strategy, 300)[1]
    texts = fresh.to_text(), fresh.dumps()
    _, trace, _ = normalize(term, FULL, strategy, 300)
    assert all(s.result is not None for s in trace.steps)
    assert spliced_steps(trace, monkeypatch) == (len(trace.steps) if strategy == "lo" else 0)
    assert (trace.to_text(), trace.dumps()) == texts


@pytest.mark.parametrize("name", sorted(RULE_SETS))
def test_a_lo_trace_read_in_any_order_prints_as_before(name):
    # a read step is spliced at the zipper's node, which must first be
    # rebuilt from the live term also when it lies on the last path
    rng, cfg = Random(7), GenConfig(seed=7, size=25)
    for i in range(200):
        t = gen_raw_term(rng, rng.randint(2, 30)) if i % 2 else gen_wellformed(cfg, rng)[1]
        fresh = normalize(t, RULE_SETS[name], "lo", 60)[1]
        trace = normalize(t, RULE_SETS[name], "lo", 60)[1]
        read = list(range(len(trace.steps)))
        if i % 3 == 1:
            read.reverse()
        elif i % 3 == 2:
            read = rng.sample(read, len(read) // 2)
        for k in read:
            assert trace.steps[k].result is not None
        assert (trace.to_text(), trace.dumps()) == (fresh.to_text(), fresh.dumps())


@pytest.mark.parametrize("strategy", ["lo", "ri", 1], ids=["lo", "ri", "index:1"])
@pytest.mark.parametrize("name", sorted(RULE_SETS))
def test_dumps_is_json_dumps_with_an_indent(name, strategy):
    rng, cfg = Random(3), GenConfig(seed=3, size=20)
    for _ in range(20):
        for t in (gen_raw_term(rng, rng.randint(2, 30)), gen_wellformed(cfg, rng)[1]):
            _, trace, _ = normalize(t, RULE_SETS[name], strategy, 30)
            assert trace.dumps() == json.dumps(trace.to_json(), indent=2)


@pytest.mark.parametrize("src, rules, fired, shown", [
    ("x", FULL, [], '"steps": []'),
    (r"(\x. x) y", FULL, ["Beta", "Var"], '"pathAsChildIndices": []'),
    (r"\y. W y * y", SIGMA_ALPHA, ["Alpha", "IdShift", "W"], '"freshVariableOrNull": "z"'),
], ids=["no step", "steps at the root", "a fresh name"])
def test_dumps_edge_cases(src, rules, fired, shown):
    _, trace, _ = normalize(parse_term(src), rules)
    assert [s.rule for s in trace.steps] == fired
    assert shown in trace.dumps()
    assert trace.dumps() == json.dumps(trace.to_json(), indent=2)
    with pytest.raises(ValueError, match="unknown trace form"):
        "".join(trace.pieces("jsonl"))


@pytest.mark.parametrize("flag, strategy", [("lo", "lo"), ("ri", "ri"), ("index:1", 1),
                                            ("index:2", 2)],
                         ids=["lo", "ri", "index:1", "index:2"])
def test_reduce_writes_the_trace_that_dumps_and_to_text_return(flag, strategy, capsys):
    # `exsub reduce` writes the pieces of the trace as they are made; the
    # bytes are the joined trace's, with and without steps
    rng, cfg = Random(5), GenConfig(seed=5, size=20)
    terms = [parse_term("x")]
    for _ in range(25):
        terms += [gen_raw_term(rng, rng.randint(2, 30)), gen_wellformed(cfg, rng)[1]]
    for t in terms:
        argv = ["reduce", print_term(t), "--strategy", flag, "--steps", "30"]
        _, trace, _ = normalize(t, FULL, strategy, 30)
        assert main(argv + ["--trace", "json"]) == 0
        assert capsys.readouterr().out == trace.dumps() + "\n"
        assert main(argv + ["--trace", "text"]) == 0
        assert capsys.readouterr().out == trace.to_text() + "\n"


def memo_after_printing(trace, monkeypatch):
    """The memo of printed lengths that every spliced step of `trace` used."""
    memos = []

    def spy(*args):
        memos.append(args[-1])
        return print_spliced(*args)

    monkeypatch.setattr(rewrite, "print_spliced", spy)
    text = trace.to_json()
    assert all(m is memos[0] for m in memos)
    assert text == fresh_json(trace)
    return memos[0]


@pytest.mark.parametrize("term, strategy, fuel", [
    (mult(12), "lo", 100_000),
    # each step drops a whole redex, not only the spine above it
    (parse_term(r"(\x. x x) (\x. x x)"), "ri", 2000),
], ids=["mult c_12 c_12", "omega under ri"])
def test_trace_print_memo_follows_the_live_term(term, strategy, fuel, monkeypatch):
    _, trace, _ = normalize(term, FULL, strategy, fuel)
    memo = memo_after_printing(trace, monkeypatch)
    largest = max(node_size(s.result) for s in trace.steps)
    assert len(memo) <= 2 * largest


def printer_visits_per_step(k: int, monkeypatch) -> tuple[float, float]:
    """Nodes that printing the contracta visits per step of the trace of
    mult c_k c_k, the print of the initial term left out: each part that a
    recipe of `rewrite._SPLICE` places (`child_extent`) and each node that
    `syntax._print` visits for a contractum printed in full; and those
    together with the nodes that measuring visits to place a part or walk
    down a path (`syntax._length`)."""
    _, trace, _ = normalize(mult(k), FULL, "lo", 100_000)
    parts, place, print_term_ = syntax._parts, rewrite.child_extent, rewrite.print_term
    visits, inside, initial = [0, 0], [None], [0]   # inside[-1]: "print", "recipe" or "measure"

    def count(u):
        if not initial[0]:
            visits[0] += inside[-1] == "print"
            visits[1] += 1
        return parts(u)

    def placed(*args):
        visits[0] += inside[-1] == "recipe"
        visits[1] += inside[-1] == "recipe"
        return place(*args)

    def printed_initial(t):
        initial[0] += 1
        try:
            return print_term_(t)
        finally:
            initial[0] -= 1

    def within(fn, what: str):
        def spy(*args):
            inside.append(what)
            try:
                return fn(*args)
            finally:
                inside.pop()
        return spy

    with monkeypatch.context() as m:
        m.setattr(syntax, "_parts", count)
        m.setattr(syntax, "_print", within(syntax._print, "print"))
        m.setattr(syntax, "_length", within(syntax._length, "measure"))
        m.setattr(rewrite, "child_extent", placed)
        m.setattr(rewrite, "print_term", printed_initial)
        for rule, recipe in rewrite._SPLICE.items():
            m.setitem(rewrite._SPLICE, rule, within(recipe, "recipe"))
        printed_trace = trace.to_json()
    assert printed_trace == fresh_json(trace)
    return visits[0] / len(trace.steps), visits[1] / len(trace.steps)


def test_printer_work_per_step_does_not_grow_with_the_term(monkeypatch):
    # on average the redex lies 6.6 nodes deep at k = 4 and 17.9 at k = 12;
    # printing the contracta visits 2.47 nodes per step at k = 4 and 2.54
    # at k = 12 (the rule mix differs), and with measuring 3.89 and 3.92
    core4, all4 = printer_visits_per_step(4, monkeypatch)
    core12, all12 = printer_visits_per_step(12, monkeypatch)
    assert core12 <= 1.1 * core4 < 3
    assert all12 <= 1.1 * all4


# --- splice recipes -------------------------------------------------------

def engine_steps(rules, strategy, count: int, seed: int):
    """The steps that the engine's stream makes on generated terms, each
    holding its redex and contractum."""
    rng, cfg = Random(seed), GenConfig(seed=seed, size=20)
    for _ in range(count):
        for t in (gen_raw_term(rng, rng.randint(2, 30)), gen_wellformed(cfg, rng)[1]):
            yield from itertools.islice(rewrite._stream(t, rules, strategy)[1], 60)


def test_each_recipe_prints_its_rules_contractum():
    # the redex's text lies inside other text, as in a trace
    seen = dict.fromkeys(rewrite._SPLICE, 0)
    for rules in (FULL, SIGMA_ALPHA):
        for s in engine_steps(rules, "lo", 150, 11):
            if s.rule in seen:
                old, new, memo = s._redex, s._contractum, {}
                text = f"(x {print_term(old)}) y"
                out = rewrite._SPLICE[s.rule](old, new, text, 3, len(text) - 3, memo)
                assert out == print_term(new), (s.rule, print_term(old))
                seen[s.rule] += 1
    assert min(seen.values()) >= 20, seen


@pytest.mark.parametrize("rule", sorted(rewrite._SPLICE))
def test_a_recipe_answers_none_for_copies_of_the_parts(rule, monkeypatch):
    # a contractum equal by value to the rule's, but built from copies of
    # the redex's parts, holds none of them by identity: it is printed in
    # full, and right; Beta needs the full rule set, the other rules run
    # under sigma-alpha
    contract, answers = rewrite._CONTRACT[rule], []

    def copied(t):
        new = contract(t)
        twin = copy.deepcopy(new)
        assert twin == new and twin is not new
        return twin

    def recipe(*args):
        answers.append(splice(*args))
        return answers[-1]

    splice = rewrite._SPLICE[rule]
    monkeypatch.setitem(rewrite._CONTRACT, rule, copied)
    monkeypatch.setitem(rewrite._SPLICE, rule, recipe)
    rng, cfg = Random(13), GenConfig(seed=13, size=20)
    for _ in range(40):
        for t in (gen_raw_term(rng, rng.randint(2, 30)), gen_wellformed(cfg, rng)[1],
                  mult(2)):
            _, trace, _ = normalize(t, FULL if rule == "Beta" else SIGMA_ALPHA, "lo", 60)
            assert trace.to_text() == fresh_text(trace)
    assert answers and set(answers) == {None}


def swapped_app(t):
    return App(Comp(t.sub, t.body.arg), Comp(t.sub, t.body.fn))


def lambda_without_lift(t):
    return Lam(t.body.var, Comp(t.sub, t.body.body))


@pytest.mark.parametrize("strategy", ["lo", "ri"])
def test_traces_print_right_under_patched_app_and_lambda(strategy, monkeypatch):
    # the recipes check the contractum that the patched entries make and
    # answer None, so those steps print in full
    monkeypatch.setitem(rewrite._CONTRACT, "App", swapped_app)
    monkeypatch.setitem(rewrite._CONTRACT, "Lambda", lambda_without_lift)
    fired = set()
    rng, cfg = Random(17), GenConfig(seed=17, size=20)
    for _ in range(40):
        for t in (gen_raw_term(rng, rng.randint(2, 30)), gen_wellformed(cfg, rng)[1]):
            _, trace, _ = normalize(t, FULL, strategy, 60)
            assert trace.to_text() == fresh_text(trace)
            assert trace.to_json() == fresh_json(trace)
            fired |= {s.rule for s in trace.steps}
    assert {"App", "Lambda"} <= fired


# --- depth ----------------------------------------------------------------

DEPTH = 10_000      # well past the default recursion limit


def test_deep_left_application_chain():
    t = VarRef("x")
    for _ in range(DEPTH):
        t = App(t, VarRef("y"))
    assert print_term(t) == "x" + " y" * DEPTH


def test_deep_right_application_chain():
    t = VarRef("x")
    for _ in range(DEPTH):
        t = App(VarRef("f"), t)
    assert print_term(t) == "f (" * (DEPTH - 1) + "f x" + ")" * (DEPTH - 1)


def test_deep_binder_chain():
    t = VarRef("x")
    for _ in range(DEPTH):
        t = Lam("x", t)
    assert print_term(t) == "\\x. " * DEPTH + "x"


def test_deep_composition_chains():
    t = VarRef("x")
    for _ in range(DEPTH):
        t = Comp(Weak("y"), t)
    assert print_term(t) == "W y * " * DEPTH + "x"
    s = Weak("y")
    for _ in range(DEPTH):
        s = Lift(s, "z")
    assert print_subst(s) == "W y" + "^z" * DEPTH
    t = VarRef("x")
    for _ in range(DEPTH):
        t = Comp(Slash(t, "y"), VarRef("z"))
    assert print_term(t) == "[" * DEPTH + "x" + "/y] * z" * DEPTH


def test_deep_trace_records_no_long_text(monkeypatch):
    # the texts of every subterm of one of these chains add up to 2 * 10**8
    # characters, quadratic in its depth
    t = App(Lam("y", VarRef("y")), VarRef("x"))
    for _ in range(DEPTH):
        t = Lam("x", t)
    _, trace, _ = normalize(t, FULL, "lo", 10)
    assert [s.rule for s in trace.steps] == ["Beta", "Var"]
    memo = memo_after_printing(trace, monkeypatch)
    path = ".".join(["0"] * DEPTH)
    assert trace.to_text().splitlines()[-1] == f"Var\t{path}\t-\t" + "\\x. " * DEPTH + "x"
    # the memo holds lengths, not texts, and no entry per level of the chain
    assert all(type(n) is int for _, n in memo.values())
    assert len(memo) < DEPTH

"""The de Bruijn side: companion calculi, translation, and equivalences.

Terms mix free names with de Bruijn indices: a free name refers to the
ambient scope, the index ``1`` to the innermost binder, and ``a[^]``
shifts a term one binder out.  Substitutions are ``b/`` (consume the
innermost binder), ``^`` (shift), ``id``, and ``^^s`` (lift under a
binder).  Internally everything is stored in bracket form ``a[s]``; the
printer also offers the composition form ``s * a``, which matches the
named calculus more closely.

Three rule systems are exposed:

    UPSILON         the substitution rules alone (terminating on all terms)
    LAMBDA_UPSILON  the same plus Beta
    UPSILON2        the substitution rules on terms enriched with a marked
                    binder; Lambda comes in four variants that create or
                    consume the mark, and the mark itself can be erased
                    (Xi) or cashed in for an identity substitution (Alpha)

The translation maps a derivation of the named calculus to a de Bruijn
term: local hits become indices, strips become shifts, weakening becomes
shift, renaming becomes id, lift becomes lift.  Two named terms are
equivalent in a context when their translations coincide; for terms
admitted by pure sets this is the replacement for alpha congruence.

Normal forms under the substitution rules come two ways.
`db_normalize_upsilon` contracts the leftmost-outermost redex through the
rule table until none is left; `upsilon_nf` normalizes the children of a
node first and then pushes each normal substitution through its normal
body, in one pass.  The rules are not confluent on every term: on the
ill-formed ``(\\z)[^][id]`` the walk reaches ``\\z[^^^]`` and the pass
``\\z[^^^][^^id]``.  On well-formed terms without marked binders the
normal form is unique, and the two agree.  Each result is a reduct of its
term, so two terms with equal results of either are joinable wherever
they come from; the property harness, whose join pairs are well-formed,
uses the pass.
"""

from __future__ import annotations

from .contexts import Context
from .freevars import fv
from .judgements import Derivation, IllFormed, NotDerivable, derive, well_formed
from .syntax import _print
from .terms import InvalidRedex, LeftmostOutermost, Path, Term, Value, replace_at, subterm_at


class FreeName(Value):
    name: str
    CHILDREN = ()


class One(Value):
    CHILDREN = ()


class DApp(Value):
    fn: "DBTerm"
    arg: "DBTerm"
    CHILDREN = ("fn", "arg")


class DLam(Value):
    body: "DBTerm"
    CHILDREN = ("body",)


class DBoldLam(Value):
    body: "DBTerm"
    CHILDREN = ("body",)


class DComp(Value):
    # bracket form: DComp(s, a) is a[s]
    sub: "DBSub"
    body: "DBTerm"
    CHILDREN = ("sub", "body")


class DSlash(Value):
    term: "DBTerm"
    CHILDREN = ("term",)


class DShift(Value):
    CHILDREN = ()


class DId(Value):
    CHILDREN = ()


class DLift(Value):
    sub: "DBSub"
    CHILDREN = ("sub",)


DBTerm = FreeName | One | DApp | DLam | DBoldLam | DComp
DBSub = DSlash | DShift | DId | DLift
_NODES = frozenset(DBTerm.__args__ + DBSub.__args__)

DB_BETA = "Beta"
DB_APP = "App"
DB_LAMBDA = "Lambda"
DB_LAMBDAP = "LambdaP"
DB_LAMBDAPP = "LambdaPP"
DB_LAMBDAPPP = "LambdaPPP"
DB_VAR = "Var"
DB_SHIFT = "Shift"
DB_VARID = "VarId"
DB_SHIFTID = "ShiftId"
DB_VARLIFT = "VarLift"
DB_SHIFTLIFT = "ShiftLift"
DB_ALPHA = "Alpha"
DB_XI = "Xi"

_SUB_RULES = (DB_APP, DB_LAMBDA, DB_VAR, DB_SHIFT, DB_VARID, DB_SHIFTID,
              DB_VARLIFT, DB_SHIFTLIFT)

UPSILON = "upsilon"
LAMBDA_UPSILON = "lambda-upsilon"
UPSILON2 = "upsilon2"

SYSTEM_RULES = {
    UPSILON: frozenset(_SUB_RULES),
    LAMBDA_UPSILON: frozenset(_SUB_RULES + (DB_BETA,)),
    UPSILON2: frozenset(_SUB_RULES
                        + (DB_LAMBDAP, DB_LAMBDAPP, DB_LAMBDAPPP, DB_ALPHA, DB_XI)),
}

def db_check(n: int, a: DBTerm) -> bool:
    """Decide the arity judgement: free names live at arity 0, the index
    at any positive arity, a binder raises the arity of its body."""
    match a:
        case FreeName(_):
            return n == 0
        case One():
            return n >= 1
        case DApp(f, b):
            return db_check(n, f) and db_check(n, b)
        case DLam(b) | DBoldLam(b):
            return db_check(n + 1, b)
        case DComp(s, b):
            m = db_check_sub(n, s)
            return m is not None and db_check(m, b)
    raise TypeError(f"not a de Bruijn term: {a!r}")


def db_check_sub(n: int, s: DBSub) -> int | None:
    """Output arity of a substitution at input arity n, or None."""
    match s:
        case DSlash(b):
            return n + 1 if db_check(n, b) else None
        case DShift():
            return n - 1 if n >= 1 else None
        case DId():
            return n if n >= 1 else None
        case DLift(inner):
            if n < 1:
                return None
            m = db_check_sub(n - 1, inner)
            return None if m is None else m + 1
    raise TypeError(f"not a de Bruijn substitution: {s!r}")


def _shape(a: DBTerm | DBSub) -> tuple:
    """The classes a left-hand side reads at `a`: its own, its children's,
    and the substitution of a body that is itself a composition."""
    cls = type(a)
    if cls is DComp:
        b = a.body
        if type(b) is DComp:
            return cls, type(a.sub), DComp, type(b.sub)
        return cls, type(a.sub), type(b)
    if cls is DApp:
        return cls, type(a.fn)
    return (cls,)


# Every rule whose left-hand side matches a shape, in the order the scans
# report them.  A shape that is not a key matches no rule.
_SHAPE_RULES: dict[tuple, tuple[str, ...]] = {
    (DApp, DLam): (DB_BETA,),
    (DBoldLam,): (DB_ALPHA, DB_XI),
    **{(DComp, s, DApp): (DB_APP,) for s in DBSub.__args__},
    **{(DComp, s, DLam): (DB_LAMBDA, DB_LAMBDAP) for s in DBSub.__args__},
    **{(DComp, s, DBoldLam): (DB_LAMBDAPP, DB_LAMBDAPPP) for s in DBSub.__args__},
    (DComp, DSlash, One): (DB_VAR,),
    (DComp, DId, One): (DB_VARID,),
    (DComp, DLift, One): (DB_VARLIFT,),
    (DComp, DSlash, DComp, DShift): (DB_SHIFT,),
    (DComp, DId, DComp, DShift): (DB_SHIFTID,),
    (DComp, DLift, DComp, DShift): (DB_SHIFTLIFT,),
}

def _node_rules(a: DBTerm | DBSub, rules: frozenset[str]) -> Iterator[str]:
    return (r for r in _SHAPE_RULES.get(_shape(a), ()) if r in rules)


def _iter_db_redexes(a: DBTerm | DBSub, rules: frozenset[str],
                     path: Path) -> Iterator[tuple[Path, str]]:
    stack = [(a, path)]
    while stack:
        node, p = stack.pop()
        for r in _node_rules(node, rules):
            yield p, r
        i = len(node.CHILDREN)
        while i:
            i -= 1
            stack.append((getattr(node, node.CHILDREN[i]), p + (i,)))


# The scan above descends into substitutions too; the old name stays bound
# for the probes of perfbench/tracer.py.
_iter_db_sub_redexes = _iter_db_redexes


def db_find_redexes(a: DBTerm, system: str = UPSILON) -> list[tuple[Path, str]]:
    return list(_iter_db_redexes(a, SYSTEM_RULES[system], ()))


def _lifted(a: DComp) -> DComp:
    return DComp(DLift(a.sub), a.body.body)


# The contractum of each rule, from a redex whose shape lists the rule.
_DB_CONTRACT: dict[str, Callable[[DBTerm], DBTerm]] = {
    DB_BETA: lambda a: DComp(DSlash(a.arg), a.fn.body),
    DB_APP: lambda a: DApp(DComp(a.sub, a.body.fn), DComp(a.sub, a.body.arg)),
    DB_LAMBDA: lambda a: DLam(_lifted(a)),
    DB_LAMBDAP: lambda a: DBoldLam(_lifted(a)),
    DB_LAMBDAPP: lambda a: DLam(_lifted(a)),
    DB_LAMBDAPPP: lambda a: DBoldLam(_lifted(a)),
    DB_VAR: lambda a: a.sub.term,
    DB_SHIFT: lambda a: a.body.body,
    DB_VARID: lambda a: a.body,
    DB_SHIFTID: lambda a: a.body,
    DB_VARLIFT: lambda a: a.body,
    DB_SHIFTLIFT: lambda a: DComp(a.body.sub, DComp(a.sub.sub, a.body.body)),
    DB_ALPHA: lambda a: DLam(DComp(DId(), a.body)),
    DB_XI: lambda a: DLam(a.body),
}


def _db_contract(a: DBTerm, rule: str) -> DBTerm:
    if rule not in _SHAPE_RULES.get(_shape(a), ()):
        raise InvalidRedex(f"rule {rule} does not match {print_db(a)}")
    return _DB_CONTRACT[rule](a)


def db_apply(a: DBTerm, path: Path, rule: str) -> DBTerm:
    return replace_at(a, path, _db_contract(subterm_at(a, path), rule))


def db_one_step_reducts(a: DBTerm, system: str = UPSILON) -> list[DBTerm]:
    return [db_apply(a, p, r) for p, r in db_find_redexes(a, system)]


def db_normalize_upsilon(a: DBTerm) -> DBTerm:
    """Normal form under the substitution rules (they terminate on every
    term, so no fuel is needed)."""
    rules = SYSTEM_RULES[UPSILON]
    lo = LeftmostOutermost(a, lambda n: next(_node_rules(n, rules), None))
    while (picked := lo.next_redex()) is not None:
        lo.replace(_DB_CONTRACT[picked[1]](lo.focus))
    return lo.root


# The tasks of `upsilon_nf` besides a node to normalize: push the normal
# substitution and body on top of the results through each other
# (`(_PUSH,)`), push `s` through the normal body on top (`(_ONTO, s)`), or
# push `s` through the normal body `b` (`(_INTO, s, b)`).  A task `(cls,)`
# rebuilds a node of class `cls` from the results on top.
_PUSH, _ONTO, _INTO = "push", "onto", "into"
_LEAVES = frozenset(c for c in _NODES if not c.CHILDREN)


def upsilon_nf(a: DBTerm) -> DBTerm:
    """Normal form under the substitution rules, in one bottom-up pass.

    The rules compute meta-level substitution, as in lambda-upsilon
    (Lescanne, POPL 1994).  So the children of a node are normalized
    first, and a composition then pushes its normal substitution through
    its normal body: App and Lambda distribute it, Var, VarId and VarLift
    end it at the index, Shift, ShiftId and ShiftLift meet a shifted body.
    Everything else is stuck.  The pass runs on an explicit stack of tasks
    and one of results, so no depth of term makes it recurse.  A leaf is
    normal, and so is a node with only leaves below it that is no
    composition: each goes to the results as it stands, and a composition
    of two leaves goes straight to the push.

    The result is a normal form reached by the rules, but the rules are not
    confluent on every term, so it need not be the one that
    `db_normalize_upsilon` reaches.  On well-formed terms (those `db_check`
    admits at some arity) without marked binders the normal form is unique
    and the two agree.  On an ill-formed term they may not: `(\\z)[^][id]`
    gives `\\z[^^^][^^id]` here, because the body is normalized before the
    identity meets it, and `\\z[^^^]` by the leftmost-outermost walk,
    where ShiftId fires first.  Either result is a reduct of the term, so
    equal results still show two terms joinable, whatever the terms.
    """
    todo, out = [a], []
    while todo:
        t = todo.pop()
        cls = type(t)
        if cls is tuple:
            op = t[0]
            if op is _PUSH:
                b = out.pop()
                s = out.pop()
            elif op is _INTO:
                s, b = t[1], t[2]
            elif op is _ONTO:
                s, b = t[1], out.pop()
            elif op is DApp:
                arg = out.pop()
                out[-1] = DApp(out[-1], arg)
                continue
            else:
                out[-1] = op(out[-1])
                continue
        elif cls is DComp:
            s, b = t.sub, t.body
            if type(s) not in _LEAVES:
                todo += (_PUSH,), b, s
                continue
            if type(b) not in _LEAVES:
                out.append(s)
                todo += (_PUSH,), b
                continue
        elif cls is DApp:
            f = t.fn
            if type(f) not in _LEAVES:
                todo += (DApp,), t.arg, f
            elif type(t.arg) in _LEAVES:
                out.append(t)
            else:
                out.append(f)
                todo += (DApp,), t.arg
            continue
        elif cls in _LEAVES or type(c := getattr(t, t.CHILDREN[0])) in _LEAVES:
            out.append(t)
            continue
        else:
            todo += (cls,), c
            continue
        # push the normal substitution s through the normal body b: under a
        # binder, into the function of an application and past a ShiftLift
        # in this loop, and into an argument or out of a ShiftLift as a task
        while True:
            cb = type(b)
            if cb is DLam:                                          # Lambda
                todo.append((DLam,))
                s, b = DLift(s), b.body
                continue
            if cb is DApp:                                          # App
                todo += (DApp,), (_INTO, s, b.arg)
                b = b.fn
                continue
            cs = type(s)
            if cs is DShift:
                out.append(DComp(s, b))
            elif cb is One:                                 # Var, VarId, VarLift
                out.append(s.term if cs is DSlash else b)
            elif cb is DComp and type(b.sub) is DShift:
                if cs is DLift:                                     # ShiftLift
                    todo.append((_ONTO, b.sub))
                    s, b = s.sub, b.body
                    continue
                out.append(b.body if cs is DSlash else b)   # Shift, ShiftId
            else:
                out.append(DComp(s, b))
            break
    return out[0]


# The constructor each derivation rule applies to its premises' translations,
# for every rule but R1, R3 and the marked binder of R5.
_TRANSLATION = {"R2": One, "R4": DApp, "R5": DLam, "R6": DComp, "R7": DSlash,
                "R8": DShift, "R9": DId, "R10": DLift}


def translate(d: Derivation, flavor: str = UPSILON) -> DBTerm | DBSub:
    """De Bruijn term of a derivation, by recursion over its unique tree.

    The upsilon2 flavor marks exactly the binders whose variable is free
    in the abstraction itself.  `fv` keeps each node's context on the
    node, so that a chain of binders is walked once.
    """
    if flavor not in SYSTEM_RULES:
        raise ValueError(f"unknown flavor: {flavor!r}")

    def go(d: Derivation) -> DBTerm | DBSub:
        rule = d.rule
        if rule == "R1":
            return FreeName(d.subject.name)
        args = map(go, d.premises)
        if rule == "R3":
            return DComp(DShift(), *args)
        if rule == "R5" and flavor == UPSILON2:
            c = fv(d.subject)
            if c is not None and d.subject.var in c:
                return DBoldLam(*args)
        if rule not in _TRANSLATION:
            raise ValueError(f"unknown rule {rule}")
        return _TRANSLATION[rule](*args)

    return go(d)


def equiv_gamma(a: Term, b: Term, ctx: Context) -> bool:
    """True when both terms are derivable in `ctx` and share a translation."""
    try:
        da = derive(ctx, a)
        db = derive(ctx, b)
    except NotDerivable:
        return False
    return translate(da) == translate(db)


def equiv_alpha(a: Term, b: Term) -> bool:
    """Equivalence of terms admitted by pure sets, taken in the union of
    their free-name sets (any larger set gives the same answer)."""
    try:
        ca = well_formed(a)
        cb = well_formed(b) if ca.is_set else ca    # b is not looked at when a fails
    except IllFormed:
        return False
    return cb.is_set and equiv_gamma(a, b, Context(ca.globals | cb.globals, ()))


_ATOMS = frozenset((FreeName, One))

# Per notation, the text of each class (but FreeName, which prints its name)
# from left to right: a literal, or a child's field and the classes printed
# bare there.  A child of any other class is printed in parentheses.
_BRACKET = {
    One: ("1",), DShift: ("^",), DId: ("id",),
    DApp: (("fn", _ATOMS | {DComp, DApp}), " ", ("arg", _ATOMS | {DComp})),
    DLam: ("\\", ("body", _NODES)),
    DBoldLam: ("\\!", ("body", _NODES)),
    DComp: (("body", _ATOMS | {DComp}), "[", ("sub", _NODES), "]"),
    DSlash: (("term", _ATOMS | {DComp}), "/"),
    DLift: ("^^", ("sub", _NODES - {DSlash, DLift})),
}
_COMPOSE = {
    **_BRACKET, DShift: ("W",),
    DApp: (("fn", _ATOMS | {DApp}), " ", ("arg", _ATOMS)),
    DComp: (("sub", _NODES), " * ", ("body", _NODES)),
    DSlash: ("[", ("term", _NODES), "/]"),
    DLift: ("^^", ("sub", _NODES - {DLift})),
}
_NOTATIONS = {"bracket": _BRACKET, "compose": _COMPOSE}


def _node(u):
    if type(u) not in _NODES:
        raise TypeError(f"not a de Bruijn node: {u!r}")
    return u


def _parts(u, table: dict) -> list:
    """The text parts of `u` from `table`, as `syntax._parts` gives those of
    a named node: literals and children, last first."""
    if type(u) is FreeName:
        return [u.name]
    out = []
    for part in reversed(table[type(u)]):
        if type(part) is str:
            out.append(part)
        elif type(c := getattr(u, part[0])) in part[1]:
            out.append(c)
        else:
            out += ")", _node(c), "("
    return out


def print_db(a: DBTerm | DBSub, notation: str = "bracket") -> str:
    """Render a de Bruijn term; `bracket` writes a[s], `compose` writes s * a.
    The printer core of the named calculus prints it from the notation's table."""
    if notation not in _NOTATIONS:
        raise ValueError(f"unknown notation: {notation!r}")
    return _print(_node(a), lambda u: _parts(u, _NOTATIONS[notation]))

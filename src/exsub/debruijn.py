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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Iterator, Optional, Union

from .contexts import Context, ctx_member
from .freevars import fv
from .judgements import Derivation, NotDerivable, derive, is_good
from .terms import (Children, InvalidRedex, Lam, Path, Sel, Term, replace_at,
                    subterm_at)


@dataclass(frozen=True)
class FreeName:
    name: str
    CHILDREN: ClassVar[Children] = ()


@dataclass(frozen=True)
class One:
    CHILDREN: ClassVar[Children] = ()


@dataclass(frozen=True)
class DApp:
    fn: "DBTerm"
    arg: "DBTerm"
    CHILDREN: ClassVar[Children] = ((Sel.APP_LEFT, "fn"), (Sel.APP_RIGHT, "arg"))


@dataclass(frozen=True)
class DLam:
    body: "DBTerm"
    CHILDREN: ClassVar[Children] = ((Sel.LAM_BODY, "body"),)


@dataclass(frozen=True)
class DBoldLam:
    body: "DBTerm"
    CHILDREN: ClassVar[Children] = ((Sel.LAM_BODY, "body"),)


@dataclass(frozen=True)
class DComp:
    # bracket form: DComp(s, a) is a[s]
    sub: "DBSub"
    body: "DBTerm"
    CHILDREN: ClassVar[Children] = ((Sel.COMP_SUBST, "sub"), (Sel.COMP_BODY, "body"))


@dataclass(frozen=True)
class DSlash:
    term: "DBTerm"
    CHILDREN: ClassVar[Children] = ((Sel.SLASH_BODY, "term"),)


@dataclass(frozen=True)
class DShift:
    CHILDREN: ClassVar[Children] = ()


@dataclass(frozen=True)
class DId:
    CHILDREN: ClassVar[Children] = ()


@dataclass(frozen=True)
class DLift:
    sub: "DBSub"
    CHILDREN: ClassVar[Children] = ((Sel.LIFT_INNER, "sub"),)


DBTerm = Union[FreeName, One, DApp, DLam, DBoldLam, DComp]
DBSub = Union[DSlash, DShift, DId, DLift]

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


def db_check_sub(n: int, s: DBSub) -> Optional[int]:
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


def _node_rules(a: DBTerm, rules: frozenset[str]) -> Iterator[str]:
    match a:
        case DApp(DLam(_), _):
            if DB_BETA in rules:
                yield DB_BETA
        case DBoldLam(_):
            if DB_ALPHA in rules:
                yield DB_ALPHA
            if DB_XI in rules:
                yield DB_XI
        case DComp(s, b):
            match b:
                case DApp(_, _):
                    if DB_APP in rules:
                        yield DB_APP
                case DLam(_):
                    if DB_LAMBDA in rules:
                        yield DB_LAMBDA
                    if DB_LAMBDAP in rules:
                        yield DB_LAMBDAP
                case DBoldLam(_):
                    if DB_LAMBDAPP in rules:
                        yield DB_LAMBDAPP
                    if DB_LAMBDAPPP in rules:
                        yield DB_LAMBDAPPP
                case One():
                    r = {DSlash: DB_VAR, DId: DB_VARID, DLift: DB_VARLIFT}.get(type(s))
                    if r is not None and r in rules:
                        yield r
                case DComp(DShift(), _):
                    r = {DSlash: DB_SHIFT, DId: DB_SHIFTID,
                         DLift: DB_SHIFTLIFT}.get(type(s))
                    if r is not None and r in rules:
                        yield r


def _iter_db_redexes(a: DBTerm | DBSub, rules: frozenset[str],
                     path: Path) -> Iterator[tuple[Path, str]]:
    for r in _node_rules(a, rules):
        yield path, r
    for sel, f in a.CHILDREN:
        yield from _iter_db_redexes(getattr(a, f), rules, path + (sel,))


# The scan above descends into substitutions too; the old name stays bound
# for the probes of perfbench/tracer.py.
_iter_db_sub_redexes = _iter_db_redexes


def db_find_redexes(a: DBTerm, system: str = UPSILON) -> list[tuple[Path, str]]:
    return list(_iter_db_redexes(a, SYSTEM_RULES[system], ()))


def _db_contract(a: DBTerm, rule: str) -> DBTerm:
    match rule, a:
        case "Beta", DApp(DLam(b), arg):
            return DComp(DSlash(arg), b)
        case "App", DComp(s, DApp(f, b)):
            return DApp(DComp(s, f), DComp(s, b))
        case "Lambda", DComp(s, DLam(b)):
            return DLam(DComp(DLift(s), b))
        case "LambdaP", DComp(s, DLam(b)):
            return DBoldLam(DComp(DLift(s), b))
        case "LambdaPP", DComp(s, DBoldLam(b)):
            return DLam(DComp(DLift(s), b))
        case "LambdaPPP", DComp(s, DBoldLam(b)):
            return DBoldLam(DComp(DLift(s), b))
        case "Var", DComp(DSlash(b), One()):
            return b
        case "Shift", DComp(DSlash(_), DComp(DShift(), b)):
            return b
        case "VarId", DComp(DId(), One()):
            return One()
        case "ShiftId", DComp(DId(), DComp(DShift(), b)):
            return DComp(DShift(), b)
        case "VarLift", DComp(DLift(_), One()):
            return One()
        case "ShiftLift", DComp(DLift(s), DComp(DShift(), b)):
            return DComp(DShift(), DComp(s, b))
        case "Alpha", DBoldLam(b):
            return DLam(DComp(DId(), b))
        case "Xi", DBoldLam(b):
            return DLam(b)
    raise InvalidRedex(f"rule {rule} does not match {print_db(a)}")


def db_apply(a: DBTerm, path: Path, rule: str) -> DBTerm:
    return replace_at(a, path, _db_contract(subterm_at(a, path), rule))


def db_one_step_reducts(a: DBTerm, system: str = UPSILON) -> list[DBTerm]:
    return [db_apply(a, p, r) for p, r in db_find_redexes(a, system)]


def db_normalize_upsilon(a: DBTerm) -> DBTerm:
    """Normal form under the substitution rules (they terminate on every
    term, so no fuel is needed)."""
    rules = SYSTEM_RULES[UPSILON]
    while (picked := next(_iter_db_redexes(a, rules, ()), None)) is not None:
        a = db_apply(a, *picked)
    return a


def translate(d: Derivation, flavor: str = UPSILON) -> DBTerm | DBSub:
    """De Bruijn term of a derivation, by recursion over its unique tree.

    The upsilon2 flavor marks exactly the binders whose variable is free
    in the abstraction itself.
    """
    match d.rule:
        case "R1":
            return FreeName(d.subject.name)
        case "R2":
            return One()
        case "R3":
            return DComp(DShift(), translate(d.premises[0], flavor))
        case "R4":
            return DApp(translate(d.premises[0], flavor),
                        translate(d.premises[1], flavor))
        case "R5":
            body = translate(d.premises[0], flavor)
            if flavor == UPSILON2:
                lam = d.subject
                assert isinstance(lam, Lam)
                c = fv(lam)
                if c is not None and ctx_member(lam.var, c):
                    return DBoldLam(body)
            return DLam(body)
        case "R6":
            return DComp(translate(d.premises[0], flavor),
                         translate(d.premises[1], flavor))
        case "R7":
            return DSlash(translate(d.premises[0], flavor))
        case "R8":
            return DShift()
        case "R9":
            return DId()
        case "R10":
            return DLift(translate(d.premises[0], flavor))
    raise ValueError(f"unknown rule {d.rule}")


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
    if not (is_good(a) and is_good(b)):
        return False
    ca, cb = fv(a), fv(b)
    assert ca is not None and cb is not None
    return equiv_gamma(a, b, Context(ca.globals | cb.globals, ()))


def print_db(a: DBTerm | DBSub, notation: str = "bracket") -> str:
    """Render a de Bruijn term; `bracket` writes a[s], `compose` writes s * a."""
    if notation == "bracket":
        return _print_bracket(a)
    if notation == "compose":
        return _print_compose(a)
    raise ValueError(f"unknown notation: {notation!r}")


def _bracket_atom(a: DBTerm) -> str:
    if isinstance(a, (FreeName, One, DComp)):
        return _print_bracket(a)
    return "(" + _print_bracket(a) + ")"


def _print_bracket(a) -> str:
    match a:
        case FreeName(x):
            return x
        case One():
            return "1"
        case DApp(f, b):
            left = _print_bracket(f) if isinstance(f, (DApp, FreeName, One, DComp)) \
                else _bracket_atom(f)
            return f"{left} {_bracket_atom(b)}"
        case DLam(b):
            return "\\" + _print_bracket(b)
        case DBoldLam(b):
            return "\\!" + _print_bracket(b)
        case DComp(s, b):
            return f"{_bracket_atom(b)}[{_print_bracket(s)}]"
        case DSlash(b):
            inner = _print_bracket(b) if isinstance(b, (FreeName, One, DComp)) \
                else "(" + _print_bracket(b) + ")"
            return inner + "/"
        case DShift():
            return "^"
        case DId():
            return "id"
        case DLift(s):
            inner = _print_bracket(s)
            if isinstance(s, (DSlash, DLift)):
                inner = "(" + inner + ")"
            return "^^" + inner
    raise TypeError(f"not a de Bruijn node: {a!r}")


def _compose_atom(a: DBTerm) -> str:
    if isinstance(a, (FreeName, One)):
        return _print_compose(a)
    return "(" + _print_compose(a) + ")"


def _print_compose(a) -> str:
    match a:
        case FreeName(x):
            return x
        case One():
            return "1"
        case DApp(f, b):
            left = _print_compose(f) if isinstance(f, (DApp, FreeName, One)) \
                else _compose_atom(f)
            return f"{left} {_compose_atom(b)}"
        case DLam(b):
            return "\\" + _print_compose(b)
        case DBoldLam(b):
            return "\\!" + _print_compose(b)
        case DComp(s, b):
            return f"{_print_compose(s)} * {_print_compose(b)}"
        case DSlash(b):
            return f"[{_print_compose(b)}/]"
        case DShift():
            return "W"
        case DId():
            return "id"
        case DLift(s):
            inner = _print_compose(s)
            if isinstance(s, DLift):
                inner = "(" + inner + ")"
            return "^^" + inner
    raise TypeError(f"not a de Bruijn node: {a!r}")

"""Random generation of terms for the property harness.

The central generator builds a derivation top-down, so every pair it
returns is derivable by construction; rejection sampling of raw terms
would almost never produce a well-formed composition.  Substitutions are
generated against the context they must accept: weakening, renaming, and
lift require a matching local tail and are offered exactly when it is
available.

Also provided: raw (possibly ill-formed) syntax trees for parser tests,
de Bruijn terms built against the arity judgement, marked de Bruijn terms
for the path-order tests, and erasures of simply typed skeletons, which
are good terms with terminating Beta behaviour at any fuel worth having.
"""

from __future__ import annotations

from bisect import bisect
from itertools import accumulate
from random import Random

from .contexts import Context
from .debruijn import (DApp, DBoldLam, DBSub, DBTerm, DComp, DId, DLam,
                       DLift, DShift, DSlash, FreeName, One)
from .terms import (App, Comp, Lam, Lift, Rename, Slash, Subst, Term, Var,
                    Value, VarRef, Weak)

_NAMES = ("x", "y", "z", "w")           # the variable names of generated terms
_MAX_GLOBALS, _MAX_LOCALS = 3, 2        # the shape of generated contexts
# relative weights of the constructors the generators draw: named terms and
# substitutions, raw named syntax, de Bruijn terms and substitutions, marked
# de Bruijn terms, raw marked substitutions, simply typed skeletons
_MIX = {"var": 4, "app": 3, "lam": 3, "comp": 3,
        "slash": 3, "weak": 2, "rename": 2, "lift": 2}
_RAW_MIX = {"app": 3, "lam": 2, "comp": 3, "slash": 3, "weak": 2, "rename": 2, "lift": 2}
_DB_MIX = {"leaf": 2, "app": 3, "lam": 2, "comp": 4,
           "slash": 3, "shift": 3, "id": 2, "lift": 3}
_MARKED_MIX = {"app": 2, "lam": 2, "mark": 3, "comp": 5,
               "slash": 3, "shift": 3, "id": 2, "lift": 3}
_RAW_DB_MIX = {"slash": 3, "shift": 3, "id": 2, "lift": 2}
_TYPED_MIX = {"lam": 4, "var": 2, "app": 3}
_CUMULATIVE: dict[tuple[tuple[str, ...], int], tuple[int, ...]] = {}


def _choose(rng: Random, kinds: tuple[str, ...], mix: dict[str, int]) -> str:
    """The kind `rng.choices(kinds, [mix[k] for k in kinds])[0]` draws,
    from the same one call of `rng.random()`, with the cumulative weights
    of each tuple of kinds under each mix summed once.  Every mix is a
    table of this module, which lives as long as the module, so its id
    names it in the cache."""
    key = kinds, id(mix)
    cum = _CUMULATIVE.get(key)
    if cum is None:
        cum = _CUMULATIVE[key] = tuple(accumulate(mix[k] for k in kinds))
    return kinds[bisect(cum, rng.random() * cum[-1], 0, len(kinds) - 1)]


class GenConfig(Value):
    seed: int = 0
    size: int = 40            # max term size
    count: int = 1000         # trials per suite
    fuel: int = 10000

    def __post_init__(self):
        if self.size <= 0 or self.count <= 0 or self.fuel <= 0:
            raise ValueError("all generation bounds must be positive")


def gen_context(rng: Random) -> Context:
    globs = frozenset(rng.sample(_NAMES, rng.randint(0, _MAX_GLOBALS)))
    locs = tuple(rng.choice(_NAMES) for _ in range(rng.randint(0, _MAX_LOCALS)))
    return Context(globs, locs)


def _members(ctx: Context) -> list[Var]:
    return sorted(ctx.globals | set(ctx.locals))


def gen_term(rng: Random, ctx: Context, size: int) -> Term:
    members = _members(ctx)
    if size <= 1:
        if members:
            return VarRef(rng.choice(members))
        # an empty context admits only abstractions; bind and use a name
        x = rng.choice(_NAMES)
        return Lam(x, VarRef(x))
    kinds = ("var", "app", "lam", "comp") if members else ("app", "lam", "comp")
    kind = _choose(rng, kinds, _MIX)
    if kind == "var":
        return VarRef(rng.choice(members))
    if kind == "app":
        left = rng.randint(1, size - 2) if size > 2 else 1
        return App(gen_term(rng, ctx, left),
                   gen_term(rng, ctx, size - 1 - left))
    if kind == "lam":
        x = rng.choice(_NAMES)
        return Lam(x, gen_term(rng, ctx.push(x), size - 1))
    sub_size = rng.randint(1, max(1, size // 2))
    s, delta = gen_subst(rng, ctx, sub_size)
    return Comp(s, gen_term(rng, delta, max(1, size - 1 - sub_size)))


def gen_subst(rng: Random, ctx: Context, size: int) -> tuple[Subst, Context]:
    """A substitution accepted by `ctx`, with its output context."""
    kinds = ("slash", "weak", "rename", "lift") if ctx.locals else ("slash",)
    kind = _choose(rng, kinds, _MIX)
    if kind == "slash":
        x = rng.choice(_NAMES)
        return Slash(gen_term(rng, ctx, max(1, size - 1)), x), ctx.push(x)
    if kind == "weak":
        return Weak(ctx.top), ctx.pop()
    if kind == "rename":
        x = rng.choice(_NAMES)
        return Rename(ctx.top, x), ctx.pop().push(x)
    inner, delta = gen_subst(rng, ctx.pop(), max(1, size - 1))
    return Lift(inner, ctx.top), delta.push(ctx.top)


def gen_wellformed(cfg: GenConfig, rng: Random | None = None) -> tuple[Context, Term]:
    """A derivable pair: the context and a term it admits."""
    if rng is None:
        rng = Random(cfg.seed)
    ctx = gen_context(rng)
    return ctx, gen_term(rng, ctx, rng.randint(1, cfg.size))


def gen_raw_term(rng: Random, size: int) -> Term:
    """An arbitrary syntax tree, with no well-formedness discipline."""
    if size <= 1:
        return VarRef(rng.choice(_NAMES))
    kind = _choose(rng, ("app", "lam", "comp"), _RAW_MIX)
    if kind == "app":
        left = rng.randint(1, size - 2) if size > 2 else 1
        return App(gen_raw_term(rng, left),
                   gen_raw_term(rng, size - 1 - left))
    if kind == "lam":
        return Lam(rng.choice(_NAMES), gen_raw_term(rng, size - 1))
    return Comp(gen_raw_subst(rng, size // 2),
                gen_raw_term(rng, max(1, size - 1 - size // 2)))


def gen_raw_subst(rng: Random, size: int) -> Subst:
    kind = _choose(rng, ("slash", "weak", "rename", "lift"), _RAW_MIX)
    if kind == "slash":
        return Slash(gen_raw_term(rng, max(1, size - 1)), rng.choice(_NAMES))
    if kind == "weak":
        return Weak(rng.choice(_NAMES))
    if kind == "rename":
        return Rename(rng.choice(_NAMES), rng.choice(_NAMES))
    return Lift(gen_raw_subst(rng, max(1, size - 1)), rng.choice(_NAMES))


def gen_db(rng: Random, n: int, size: int) -> DBTerm:
    """A de Bruijn term well-formed at arity `n`, built against the
    arity rules top-down."""
    if size <= 1:
        if n == 0:
            return FreeName(rng.choice(_NAMES))
        return One()
    kind = _choose(rng, ("leaf", "app", "lam", "comp"), _DB_MIX)
    if kind == "leaf":
        return FreeName(rng.choice(_NAMES)) if n == 0 else One()
    if kind == "app":
        left = rng.randint(1, size - 2) if size > 2 else 1
        return DApp(gen_db(rng, n, left), gen_db(rng, n, size - 1 - left))
    if kind == "lam":
        return DLam(gen_db(rng, n + 1, size - 1))
    sub_size = rng.randint(1, max(1, size // 2))
    s, m = gen_db_sub(rng, n, sub_size)
    return DComp(s, gen_db(rng, m, max(1, size - 1 - sub_size)))


def gen_db_sub(rng: Random, n: int, size: int) -> tuple[DBSub, int]:
    """A substitution well-formed at input arity `n`, with its output arity."""
    kinds = ("slash", "shift", "id", "lift") if n >= 1 else ("slash",)
    kind = _choose(rng, kinds, _DB_MIX)
    if kind == "slash":
        return DSlash(gen_db(rng, n, max(1, size - 1))), n + 1
    if kind == "shift":
        return DShift(), n - 1
    if kind == "id":
        return DId(), n
    inner, m = gen_db_sub(rng, n - 1, max(1, size - 1))
    return DLift(inner), m + 1


def gen_db_marked(rng: Random, size: int) -> DBTerm:
    """An arbitrary marked de Bruijn term (no arity discipline); used to
    exercise the labelled path order on every rule."""
    if size <= 1:
        return rng.choice((One(), FreeName(rng.choice(_NAMES))))
    kind = _choose(rng, ("app", "lam", "mark", "comp"), _MARKED_MIX)
    if kind == "app":
        left = rng.randint(1, size - 2) if size > 2 else 1
        return DApp(gen_db_marked(rng, left),
                    gen_db_marked(rng, size - 1 - left))
    if kind == "lam":
        return DLam(gen_db_marked(rng, size - 1))
    if kind == "mark":
        return DBoldLam(gen_db_marked(rng, size - 1))
    sub_size = rng.randint(1, max(1, size // 2))
    s = gen_raw_db_sub(rng, sub_size + 1, _MARKED_MIX)
    return DComp(s, gen_db_marked(rng, max(1, size - 1 - sub_size)))


def gen_raw_db_sub(rng: Random, size: int, mix: dict[str, int]) -> DBSub:
    """A marked substitution with no arity discipline, its outer kind drawn from `mix`."""
    kind = _choose(rng, ("slash", "shift", "id", "lift"), mix)
    if kind == "slash":
        return DSlash(gen_db_marked(rng, max(1, size - 1)))
    if kind == "shift":
        return DShift()
    if kind == "id":
        return DId()
    return DLift(gen_raw_db_sub(rng, max(1, size - 1), _RAW_DB_MIX))


# Simply typed skeletons.  Types are None (base) or (left, right) pairs.

_FREE_TYPED = (("f", (None, None)), ("g", (None, (None, None))), ("c", None),
               ("d", None))


def _gen_type(rng: Random, depth: int):
    if depth <= 0 or rng.random() < 0.6:
        return None
    return _gen_type(rng, depth - 1), _gen_type(rng, depth - 1)


def gen_simply_typed(rng: Random, cfg: GenConfig, size: int | None = None) -> Term:
    """The erasure of a random simply typed term: a good pure term whose
    Beta reduction terminates."""
    size = cfg.size if size is None else size
    env = list(_FREE_TYPED)
    counter = [0]

    def go(env, ty, budget: int) -> Term:
        candidates = [x for x, t in env if t == ty]
        if budget > 1:
            kinds = ("lam",) * (ty is not None) + ("var",) * bool(candidates) + ("app",)
            kind = _choose(rng, kinds, _TYPED_MIX)
        elif candidates:
            kind = "var"
        else:                   # `ty` is an arrow: c and d have the base type
            kind = "lam"        # a budget below 1 draws as 1 does
        if kind == "var":
            return VarRef(rng.choice(candidates))
        if kind == "lam":
            lo, hi = ty
            counter[0] += 1
            x = f"b{counter[0]}"
            return Lam(x, go(env + [(x, lo)], hi, budget - 1))
        arg_ty = _gen_type(rng, 1)
        half = max(1, budget // 2)
        fn = go(env, (arg_ty, ty), half)
        arg = go(env, arg_ty, budget - half)
        return App(fn, arg)

    return go(env, _gen_type(rng, 2), rng.randint(2, max(2, size)))

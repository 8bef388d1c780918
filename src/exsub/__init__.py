"""A lambda calculus with explicit substitutions and named variables.

Substitution, weakening, and renaming of bound variables are first-class
syntax reduced by rewrite rules; free variables form a context (a global
set plus a local list) rather than a bare set, and renaming is a rewrite
step of its own.  Companion de Bruijn calculi support translation-based
equivalence checking and executable termination certificates.

Importing the package loads none of its modules: each name below, and each
module listed as its own name, is imported on its first use (PEP 562), so
a program pays only for the layers it reaches.
"""

from importlib import import_module

__version__ = "0.1.0"

# each module, exported under its own name, and the names it exports here
_EXPORTS = {
    "contexts": ("Context", "context", "ctx_compatible", "ctx_le", "ctx_sup", "format_context",
                 "o_lambda"),
    "debruijn": ("DApp", "DBoldLam", "DBSub", "DBTerm", "DComp", "DId", "DLam", "DLift",
                 "DShift", "DSlash", "FreeName", "LAMBDA_UPSILON", "One", "UPSILON", "UPSILON2",
                 "db_apply", "db_check", "db_check_sub", "db_find_redexes",
                 "db_normalize_upsilon", "equiv_alpha", "equiv_gamma", "print_db", "translate"),
    "freevars": ("fv",),
    "generators": ("GenConfig", "gen_raw_term", "gen_simply_typed", "gen_wellformed"),
    "judgements": ("Derivation", "IllFormed", "NotDerivable", "derive", "derive_subst",
                   "format_derivation", "is_good", "well_formed"),
    "normalforms": ("ContainsBlock", "is_block", "is_sigma_nf", "to_pure"),
    "pure": ("alpha_eq", "classical_normalize", "is_pure"),
    "rewrite": ("ALL_RULES", "FULL", "SIGMA", "SIGMA_ALPHA", "InvalidRedex", "Trace",
                "TraceStep", "apply_rule", "find_redexes", "fresh_var", "normalize", "step"),
    "suites": ("SUITES", "TrialReport", "run_suite"),
    "syntax": ("ParseError", "parse_context", "parse_term", "print_subst", "print_term"),
    "terms": ("App", "Comp", "Lam", "Lift", "Path", "Rename", "Slash", "Subst", "Term", "Var",
              "VarRef", "Weak"),
    "termination": ("label", "lpo_gt", "weight", "weights12"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = import_module(f"{__name__}.{module}")
    return loaded if name == module else getattr(loaded, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

"""A lambda calculus with explicit substitutions and named variables.

Substitution, weakening, and renaming of bound variables are first-class
syntax reduced by rewrite rules; free variables form a context (a global
set plus a local list) rather than a bare set, and renaming is a rewrite
step of its own.  Companion de Bruijn calculi support translation-based
equivalence checking and executable termination certificates.
"""

from .contexts import Context, context, ctx_compatible, ctx_le, ctx_sup, format_context, o_lambda
from .debruijn import (DApp, DBoldLam, DBSub, DBTerm, DComp, DId, DLam, DLift,
                       DShift, DSlash, FreeName, LAMBDA_UPSILON, One, UPSILON,
                       UPSILON2, db_apply, db_check, db_check_sub,
                       db_find_redexes, db_normalize_upsilon, equiv_alpha,
                       equiv_gamma, print_db, translate)
from .freevars import fv
from .generators import GenConfig, gen_raw_term, gen_simply_typed, gen_wellformed
from .judgements import (Derivation, IllFormed, NotDerivable, derive,
                         derive_subst, format_derivation, is_good, well_formed)
from .normalforms import ContainsBlock, is_block, is_sigma_nf, to_pure
from .pure import alpha_eq, classical_normalize, is_pure
from .rewrite import (ALL_RULES, FULL, SIGMA, SIGMA_ALPHA, InvalidRedex, Trace,
                      TraceStep, apply_rule, find_redexes, fresh_var,
                      normalize, step)
from .suites import SUITES, TrialReport, run_suite
from .syntax import ParseError, parse_context, parse_term, print_subst, print_term
from .terms import (App, Comp, Lam, Lift, Path, Rename, Slash, Subst, Term, Var,
                    VarRef, Weak)
from .termination import label, lpo_gt, weight, weights12

__version__ = "0.1.0"

"""Start-up loads only what a program uses.

`import exsub` loads none of its modules, yet every name the package
exported when it imported them all at its top still resolves, to the same
object.  A command loads only the layers it runs (the cases are in
`footprint.py`), and the parser's literal choices agree with the layers
they stand for.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import pytest

from exsub import cli, debruijn, rewrite
from exsub.suites import SUITES

from footprint import CASES, SRC, loaded

# the names the package exported when its __init__ imported every module,
# by the module that defines them; each module was exported too
EXPORTS = {
    "contexts": ["Context", "context", "ctx_compatible", "ctx_le", "ctx_sup",
                 "format_context", "o_lambda"],
    "debruijn": ["DApp", "DBoldLam", "DBSub", "DBTerm", "DComp", "DId", "DLam", "DLift",
                 "DShift", "DSlash", "FreeName", "LAMBDA_UPSILON", "One", "UPSILON", "UPSILON2",
                 "db_apply", "db_check", "db_check_sub", "db_find_redexes",
                 "db_normalize_upsilon", "equiv_alpha", "equiv_gamma", "print_db", "translate"],
    "freevars": ["fv"],
    "generators": ["GenConfig", "gen_raw_term", "gen_simply_typed", "gen_wellformed"],
    "judgements": ["Derivation", "IllFormed", "NotDerivable", "derive", "derive_subst",
                   "format_derivation", "is_good", "well_formed"],
    "normalforms": ["ContainsBlock", "is_block", "is_sigma_nf", "to_pure"],
    "pure": ["alpha_eq", "classical_normalize", "is_pure"],
    "rewrite": ["ALL_RULES", "FULL", "SIGMA", "SIGMA_ALPHA", "InvalidRedex", "Trace",
                "TraceStep", "apply_rule", "find_redexes", "fresh_var", "normalize", "step"],
    "suites": ["SUITES", "TrialReport", "run_suite"],
    "syntax": ["ParseError", "parse_context", "parse_term", "print_subst", "print_term"],
    "terms": ["App", "Comp", "Lam", "Lift", "Path", "Rename", "Slash", "Subst", "Term", "Var",
              "VarRef", "Weak"],
    "termination": ["label", "lpo_gt", "weight", "weights12"],
}

# run in a fresh process: the first import must be that of the package
PACKAGE_CHECK = """
import sys, types
exports = __import__("json").loads(sys.argv[1])
import exsub
assert [m for m in sys.modules if m.startswith("exsub.")] == [], sorted(sys.modules)
names = {*exports, *(n for ns in exports.values() for n in ns)}
assert names <= set(dir(exsub)), names - set(dir(exsub))
for module, ns in exports.items():
    m = getattr(exsub, module)
    assert isinstance(m, types.ModuleType) and m is sys.modules["exsub." + module], module
    for n in ns:
        assert getattr(exsub, n) is getattr(m, n), n
star = {}
exec("from exsub import *", star)
assert set(star) - {"__builtins__"} == names, set(star) ^ names
"""


def test_the_package_exports_every_name_lazily():
    r = subprocess.run([sys.executable, "-S", "-c", PACKAGE_CHECK, json.dumps(EXPORTS)],
                       capture_output=True, text=True, timeout=60,
                       env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert r.returncode == 0, r.stderr


def test_an_unknown_name_is_an_attribute_error():
    import exsub
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        exsub.nothing


@pytest.mark.parametrize("name", CASES)
def test_a_command_loads_only_the_layers_it_runs(name):
    code, unloaded = CASES[name]
    assert loaded(code, unloaded) == []


def _choices(command: str, dest: str):
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)).choices[command]
    return next(a.choices for a in sub._actions if a.dest == dest)


def test_the_parsers_choices_name_the_layers_sets():
    assert _choices("reduce", "rules") == _choices("normalize", "rules") == tuple(
        sorted(rewrite.RULE_SETS))
    assert _choices("translate", "calculus") == (debruijn.UPSILON, debruijn.UPSILON2)
    assert cli.build_parser().parse_args(["translate", "x", "--context", ";"]).calculus == (
        debruijn.UPSILON)
    assert _choices("test", "suite") == sorted(SUITES)

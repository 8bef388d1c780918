"""The benchmark workloads: their inputs, the timed calls and the checks.

A workload is a fixed list of calls into exsub (one pass).  `run` makes one
call and returns its raw result and, for a CLI call, when the first byte of
output was written; `units` counts the work the result shows (rewrite steps
or property trials); `check` compares it with a reference that does not come
from the engine under test and returns a message when it fails.  Inputs
depend on the seed only where a property generator is involved (harness).
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

from exsub import cli, rewrite, suites
from exsub.normalforms import ContainsBlock, to_pure
from exsub.pure import alpha_eq
from exsub.syntax import print_term
from exsub.terms import App, Lam, VarRef, path_indices

REFERENCE_FILE = Path(__file__).parent / "reference.json"

CHURCH_KS = (4, 8, 12, 16, 20)     # through rewrite.normalize
TRACE_KS = (8, 12)                 # through `exsub reduce --trace json`
# acceptance count per suite at size 40; the rest run 1000 trials
SUITE_COUNTS = {"sigma-alpha-termination": 10_000, "confluence": 500,
                "oracle-equivalence": 200}


def load_reference() -> dict:
    if not REFERENCE_FILE.exists():     # while record_reference.py runs
        return {"church": {}, "trace": {}, "harness": {}}
    return json.loads(REFERENCE_FILE.read_text())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def trace_sha256(trace) -> str:
    """sha256 of `trace.to_text()`, hashed line by line so that the whole
    text is never held in memory (it would set the worker's peak RSS)."""
    h = hashlib.sha256(print_term(trace.initial).encode())
    for s in trace.steps:
        p = ".".join(str(i) for i in path_indices(s.at)) or "-"
        h.update(f"\n{s.rule}\t{p}\t{s.fresh or '-'}\t{print_term(s.result)}".encode())
    return h.hexdigest()


def numeral(n: int):
    r"""The Church numeral \f.\x. f (f ... (f x)), built without the parser
    (parsing large numerals overflows its recursion)."""
    body = VarRef("x")
    for _ in range(n):
        body = App(VarRef("f"), body)
    return Lam("f", Lam("x", body))


def mult_term(k: int):
    mult = Lam("m", Lam("n", Lam("f", App(VarRef("m"), App(VarRef("n"), VarRef("f"))))))
    return App(App(mult, numeral(k)), numeral(k))


class _Capture(io.StringIO):
    """Captured stdout that remembers when its first byte was written."""

    first_write: float | None = None

    def write(self, s: str) -> int:
        if self.first_write is None:
            self.first_write = perf_counter()
        return super().write(s)


def run_cli(argv: list[str]):
    """`exsub ARGV` in-process: (exit code, stdout), first-byte time."""
    out = _Capture()
    with redirect_stdout(out):
        code = cli.main(argv)
    return (code, out.getvalue()), out.first_write


class Church:
    """mult c_k c_k through the library and through the CLI.

    rewrite.normalize(FULL, lo) for k = 4..20 (few large terms, with the
    shared fv memo), then `exsub reduce --trace json` for k = 8 and 12 (no
    shared memo, every intermediate term printed).
    """

    def __init__(self, seed: int):
        self.reference = load_reference()
        self.calls = ([("normalize", k, mult_term(k)) for k in CHURCH_KS]
                      + [("reduce", k, print_term(mult_term(k))) for k in TRACE_KS])
        self.labels = [f"{kind} k={k}" for kind, k, _ in self.calls]
        self.cli = [kind == "reduce" for kind, _, _ in self.calls]

    def run(self, i: int):
        kind, _, term = self.calls[i]
        if kind == "normalize":
            return rewrite.normalize(term, rewrite.FULL, "lo"), None
        return run_cli(["reduce", term, "--steps", "100000", "--trace", "json"])

    def units(self, i: int, raw) -> int:
        if self.calls[i][0] == "normalize":
            return len(raw[1].steps)
        return len(json.loads(raw[1])["steps"])

    def output_bytes(self, i: int, raw) -> int:
        return len(raw[1].encode()) if self.cli[i] else 0

    def check(self, i: int, raw, full: bool) -> str | None:
        kind, k, _ = self.calls[i]
        steps = self.units(i, raw)
        if kind == "reduce":
            ref = self.reference["trace"][str(k)]
            code, text = raw
            if code != 0:
                return f"exit code {code}"
            if steps != ref["steps"]:
                return f"{steps} steps, expected {ref['steps']}"
            if sha256(text) != ref["stdout_sha256"]:
                return "stdout differs from the recorded trace"
            return None
        ref = self.reference["church"][str(k)]
        nf, trace, exhausted = raw
        if exhausted:
            return "fuel exhausted"
        if steps != ref["steps"]:
            return f"{steps} steps, expected {ref['steps']}"
        try:
            pure_nf = to_pure(nf)
        except ContainsBlock as e:
            return f"normal form is not pure: {e}"
        if not alpha_eq(pure_nf, numeral(k * k)):
            return f"normal form is not the numeral {k * k}"
        if full and trace_sha256(trace) != ref["trace_sha256"]:
            return "trace text differs from the recorded trace"
        return None

    def step_cost_ratio(self, elapsed: list[float], units: list[int]) -> float:
        """Time per step of normalize at k=20 over that at k=4."""
        last = len(CHURCH_KS) - 1
        return (elapsed[last] / units[last]) / (elapsed[0] / units[0])


class Harness:
    """`exsub test SUITE --json` for all eleven suites at size 40 and their
    acceptance count."""

    def __init__(self, seed: int):
        self.recorded = load_reference()["harness"].get(str(seed), {})
        self.calls = [(name, ["test", name, "--seed", str(seed), "--size", "40", "--count",
                              str(SUITE_COUNTS.get(name, 1000)), "--json"])
                      for name in suites.SUITES]
        self.labels = [name for name, _ in self.calls]
        self.cli = [True] * len(self.calls)

    def run(self, i: int):
        return run_cli(self.calls[i][1])

    def units(self, i: int, raw) -> int:
        return json.loads(raw[1])["trials"]

    def output_bytes(self, i: int, raw) -> int:
        return len(raw[1].encode())

    def check(self, i: int, raw, full: bool) -> str | None:
        name = self.calls[i][0]
        code, text = raw
        report = json.loads(text)
        count = SUITE_COUNTS.get(name, 1000)
        if code != 0 or report["failures"]:
            return f"exit code {code}, {len(report['failures'])} failures"
        if report["trials"] != count:
            return f"{report['trials']} trials, expected {count}"
        if name == "sigma-alpha-termination" and report["inconclusives"]:
            return f"{report['inconclusives']} inconclusive"
        if name == "confluence" and report["inconclusives"] >= 0.05 * report["trials"]:
            return f"{report['inconclusives']} inconclusive"
        recorded = self.recorded.get(name)
        if recorded is not None and sha256(text) != recorded:
            return "--json report differs from the recorded one"
        return None

    def step_cost_ratio(self, elapsed: list[float], units: list[int]) -> float:
        return 0.0      # the suites do not grow in size


WORKLOADS = {"church": Church, "harness": Harness}

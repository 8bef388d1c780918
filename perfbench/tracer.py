"""Per-layer tracing for the traced benchmark run.

Nothing under src/ is edited.  `Tracer.install` replaces selected functions
of the exsub modules with wrappers that count calls and record spans, and
`Tracer.uninstall` puts the originals back.  A name bound by
`from .x import f` is a separate binding in each importing module, so every
module attribute (and every SUITES entry) that is the original function
object gets the wrapper, which also makes recursive calls go through it.
The wrappers are built once; installing and removing them is cheap enough
to do around every timed call.

A wrapper counts every call, recursive ones included, but opens a span only
when no span of the same name is already open: one span per outermost entry
into a layer phase.  Spans are kept in memory and written out at the end; a
span's self time is its duration minus the durations of its direct child
spans.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from importlib import import_module
from time import perf_counter

# (module, function names, span name or None, count name or None)
PROBES = [
    ("rewrite", ["step"], "rewrite.scan", None),
    ("rewrite", ["find_redexes"], "rewrite.scan", "rewrite.find_redexes_calls"),
    ("rewrite", ["_iter_redexes", "_iter_sub_redexes"], None, "rewrite.scan_nodes"),
    ("rewrite", ["_contract"], "rewrite.contract", None),
    ("terms", ["replace_at"], "rewrite.rebuild", "rewrite.rebuild_nodes"),
    ("contexts", ["ctx_sup"], None, "contexts.sup_calls"),
    ("syntax", ["parse_term", "parse_context"], "syntax.parse", None),
    ("cli", ["main"], "cli.main", None),
    ("termination", ["label"], "termination.label", None),
    ("debruijn", ["translate"], "debruijn.translate", None),
    ("debruijn", ["db_apply"], None, "debruijn.db_steps"),
    ("debruijn", ["_iter_db_redexes", "_iter_db_sub_redexes"], None, "debruijn.db_scan_nodes"),
    ("debruijn", ["db_normalize_upsilon"], "debruijn.db_normalize", None),
    ("judgements", ["derive", "derive_subst"], "judgements.derive", "judgements.derive_nodes"),
    ("generators", ["gen_wellformed", "gen_raw_term", "gen_raw_subst", "gen_db",
                    "gen_db_sub", "gen_db_marked", "gen_raw_db_sub",
                    "gen_simply_typed"], "generators.gen", None),
    ("normalforms", ["is_block", "is_sigma_nf", "to_pure"], "normalforms", None),
    ("pure", ["classical_normalize", "alpha_eq"], "pure.oracle", None),
]

# Spans reported by their self time, and the metric for each; suites and
# cli.main are reported by the full wall time of the call instead.
SELF_SPANS = {span: span + "_s" for span in (
    "rewrite.scan", "rewrite.rebuild", "rewrite.contract", "freevars.fv",
    "syntax.parse", "syntax.print", "termination.lpo", "termination.label",
    "debruijn.translate", "debruijn.db_normalize", "judgements.derive",
    "generators.gen", "pure.oracle")}
SELF_SPANS["normalforms"] = "normalforms.s"


class Tracer:
    def __init__(self):
        self.counts: Counter = Counter()
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._open: dict[int, int] = {}      # span name id -> 1 while open
        self._stack: list[int] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.kinds = array("q")
        self._patches: list[tuple[dict, str, object, object]] | None = None

    # -- spans --------------------------------------------------------------

    def _span_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
            self._open[self._name_ids[name]] = 0
        return self._name_ids[name]

    def _call_in_span(self, sid: int, fn, args, kwargs):
        """Run fn, opening span `sid` unless a span of that name is open."""
        if self._open[sid]:
            return fn(*args, **kwargs)
        self._open[sid] = 1
        idx = len(self.starts)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.kinds.append(sid)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[idx] = perf_counter()
            self._stack.pop()
            self._open[sid] = 0

    def span_totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Inclusive and self time per span name."""
        n = len(self.starts)
        covered = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                covered[p] += self.ends[i] - self.starts[i]
        total: dict[str, float] = {name: 0.0 for name in self.span_names}
        self_t: dict[str, float] = dict(total)
        for i in range(n):
            name = self.span_names[self.kinds[i]]
            d = self.ends[i] - self.starts[i]
            total[name] += d
            self_t[name] += d - covered[i]
        return total, self_t

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="ascii") as f:
            f.write("span\tname\tparent\tstart_s\tend_s\n")
            for i in range(len(self.starts)):
                f.write(f"{i}\t{self.span_names[self.kinds[i]]}\t{self.parents[i]}"
                        f"\t{self.starts[i]:.9f}\t{self.ends[i]:.9f}\n")

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, span: str | None, count: str | None):
        counts, call = self.counts, self._call_in_span
        if span is None:
            def counted(*args, **kwargs):
                counts[count] += 1
                return fn(*args, **kwargs)
            return counted
        sid = self._span_id(span)
        if count is None:
            def spanned(*args, **kwargs):
                return call(sid, fn, args, kwargs)
            return spanned

        def both(*args, **kwargs):
            counts[count] += 1
            return call(sid, fn, args, kwargs)
        return both

    def _wrap_apply_rule(self, fn):
        counts = self.counts

        def apply_rule(t, at, rule, **kwargs):
            counts["rewrite.steps"] += 1
            counts["rewrite.rule." + rule] += 1
            return fn(t, at, rule, **kwargs)
        return apply_rule

    def _wrap_fv(self, fn):
        counts, call, sid = self.counts, self._call_in_span, self._span_id("freevars.fv")

        def _fv(t, memo):
            counts["freevars.fv_nodes"] += 1
            hit = memo.get(id(t))
            if hit is not None and hit[0] is t:
                counts["freevars.memo_hits"] += 1
            res = call(sid, fn, (t, memo), {})
            if len(memo) > counts["freevars.memo_entries_max"]:
                counts["freevars.memo_entries_max"] = len(memo)
            return res
        return _fv

    def _wrap_print(self, fn):
        counts, call, sid = self.counts, self._call_in_span, self._span_id("syntax.print")
        is_open = self._open

        def printer(node):
            counts["syntax.print_calls"] += 1
            if is_open[sid]:
                return fn(node)
            s = call(sid, fn, (node,), {})
            counts["syntax.print_bytes"] += len(s)
            return s
        return printer

    def _wrap_lpo(self, fn, args_of):
        counts, call, sid = self.counts, self._call_in_span, self._span_id("termination.lpo")
        is_open = self._open

        def size(n) -> int:
            return 1 + sum(size(c) for c in args_of(n))

        def lpo_gt(a, b):
            counts["termination.lpo_calls"] += 1
            if is_open[sid]:
                return fn(a, b)
            counts["termination.lpo_nodes"] += size(a) + size(b)
            return call(sid, fn, (a, b), {})
        return lpo_gt

    def _targets(self) -> list[tuple[dict, str, object, object]]:
        """(namespace, name, original, wrapper) for every binding to patch."""
        from exsub import freevars, rewrite, suites, syntax, termination

        replacements: dict[int, tuple[object, object]] = {}

        def add(orig, wrapper):
            replacements[id(orig)] = (orig, wrapper)

        for mod_name, names, span, count in PROBES:
            for name in names:
                orig = getattr(import_module("exsub." + mod_name), name)
                add(orig, self._wrap(orig, span, count))
        add(rewrite.apply_rule, self._wrap_apply_rule(rewrite.apply_rule))
        add(freevars._fv, self._wrap_fv(freevars._fv))
        for fn in (freevars.fv, freevars.fv_blame):
            add(fn, self._wrap(fn, "freevars.fv", None))
        for fn in (syntax.print_term, syntax.print_subst):
            add(fn, self._wrap_print(fn))
        add(termination.lpo_gt, self._wrap_lpo(termination.lpo_gt, termination._args))
        for suite, fn in suites.SUITES.items():
            add(fn, self._wrap(fn, "suites." + suite, None))

        namespaces = [vars(m) for name, m in sorted(sys.modules.items())
                      if m is not None and (name == "exsub" or name.startswith("exsub."))]
        namespaces.append(suites.SUITES)
        targets = []
        for ns in namespaces:
            for name, value in list(ns.items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    targets.append((ns, name, value, hit[1]))
        return targets

    def install(self) -> None:
        if self._patches is None:
            self._patches = self._targets()
        for ns, name, _, wrapper in self._patches:
            ns[name] = wrapper

    def uninstall(self) -> None:
        for ns, name, orig, _ in self._patches:
            ns[name] = orig

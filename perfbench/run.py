"""Run one exsub benchmark workload and print its metrics.

    python3 perfbench/run.py --workload church --seed 0 --seconds 55 --trace 0

Run from the repository root.  With --trace 0 the workload's passes repeat
for --seconds and the end-to-end metrics are printed; with --trace 1 one
untraced and one traced pass give the per-layer metrics.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The exit code is 1 when any result check failed and 2 when the program
under test cannot be found.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5

END_TO_END = {"setup_s": "s", "throughput": "1/s", "peak_rss_mb": "MB"}
RULES = ("Beta", "App", "Lambda", "Var", "Shift", "ShiftP", "IdVar", "IdShift",
         "IdShiftP", "LiftVar", "LiftShift", "LiftShiftP", "W", "Alpha")
SUITE_NAMES = ("subject-reduction", "fv-monotone", "fv-least", "sigma-alpha-termination",
               "confluence", "translation-simulation", "upsilon-weights", "lpo-decrease",
               "join-lemmas", "nf-grammar", "oracle-equivalence")
PER_LAYER = {
    "rewrite.scan_s": "s", "rewrite.scan_nodes": "count",
    "rewrite.scan_nodes_per_step": "nodes/step", "rewrite.rebuild_s": "s",
    "rewrite.rebuild_nodes": "count", "rewrite.contract_s": "s", "rewrite.steps": "count",
    "rewrite.find_redexes_calls": "count",
    **{f"rewrite.rule.{r}": "count" for r in RULES},
    "freevars.fv_s": "s", "freevars.fv_nodes": "count", "freevars.memo_hit_ratio": "ratio",
    "freevars.memo_entries_max": "count", "contexts.sup_calls": "count",
    "syntax.parse_s": "s", "syntax.print_s": "s", "syntax.print_calls": "count",
    "syntax.print_bytes": "bytes", "cli.main_s": "s", "cli.output_bytes": "bytes",
    "termination.lpo_s": "s", "termination.lpo_calls": "count",
    "termination.lpo_nodes": "count", "termination.label_s": "s",
    "debruijn.translate_s": "s", "debruijn.db_steps": "count",
    "debruijn.db_scan_nodes": "count", "debruijn.db_normalize_s": "s",
    "judgements.derive_s": "s", "judgements.derive_nodes": "count",
    "generators.gen_s": "s", "normalforms.s": "s", "pure.oracle_s": "s",
    **{f"suites.{s}_s": "s" for s in SUITE_NAMES},
    "bench.untraced_s": "s", "bench.traced_s": "s", "bench.trace_overhead": "ratio",
    "bench.step_cost_ratio": "ratio", "bench.slowest_call_s": "s", "bench.first_output_ms": "ms",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("church", "harness"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def build(args):
    import workloads
    return workloads.WORKLOADS[args.workload](args.seed)


def probe_setup(args) -> None:
    """Time the import of exsub and the building of the inputs, in this
    fresh process, and print the seconds and the calibration time after."""
    t0 = perf_counter()
    build(args)
    elapsed = perf_counter() - t0
    from calibrate import calibration_s    # after: it imports dataclasses too
    print(repr(elapsed), repr(calibration_s()))


def probe_cmd(args) -> list[str]:
    return [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "0", "--trace", "0"]


def measure_setup(cmd: list[str], n: int) -> list[tuple[float, float]]:
    """(set-up time, calibration time) in each of n fresh processes."""
    probes = []
    for _ in range(n):
        out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
        elapsed, calibration = out.stdout.split()
        probes.append((float(elapsed), float(calibration)))
    return probes


class Pass:
    """One pass over a workload's calls: each call timed, then checked and
    dropped, so no result outlives its check.  The calibration is timed
    right before and after each call, and `scaled` holds each call's time
    divided by their mean, in seconds of the reference host.  With a
    tracer, tracing is on during the calls only, never during the checks."""

    def __init__(self, wl, full: bool, tally: dict, tracer=None):
        from calibrate import REFERENCE_S, calibration_s
        self.elapsed, self.response, self.units, self.output_bytes = [], [], [], 0
        self.calibration, self.scaled = [], []
        for i in range(len(wl.calls)):
            gc.collect()
            before = calibration_s()
            if tracer:
                tracer.install()
            t0 = perf_counter()
            raw, first_output = wl.run(i)
            t1 = perf_counter()
            if tracer:
                tracer.uninstall()
            calibration = (before + calibration_s()) / 2
            self.calibration.append(calibration)
            self.scaled.append((t1 - t0) * REFERENCE_S / calibration)
            self.elapsed.append(t1 - t0)
            self.response.append((first_output or t1) - t0)
            self.units.append(wl.units(i, raw))
            self.output_bytes += wl.output_bytes(i, raw)
            report(wl.labels[i], wl.check(i, raw, full), tally)
            del raw     # else it stays alive during the next call


def report(label: str, failure: str | None, tally: dict) -> None:
    tally["attempted"] += 1
    if failure is not None:
        tally["failed"] += 1
        print(f"CHECK FAILED {label}: {failure}", file=sys.stderr)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, wl, tally: dict) -> dict:
    """Repeat passes for --seconds, with set-up probes in between.

    Every time is scaled by the calibration timed next to it (see
    calibrate.py), and each call, and the set-up, is reported by the median
    of its scaled times over the run.
    """
    from calibrate import REFERENCE_S
    cmd = probe_cmd(args)
    measure_setup(cmd, 1)   # compiles bytecode, which users pay only once
    setup = measure_setup(cmd, SETUP_PROBES)
    passes = []
    start = last = perf_counter()
    while True:     # no pass is started that would end after --seconds
        passes.append(Pass(wl, not passes, tally))
        setup += measure_setup(cmd, 1)
        now = perf_counter()
        if now + (now - last) - start > args.seconds:
            break
        last = now
    n, work = len(wl.calls), sum(passes[0].units)
    values = {
        "setup_s": statistics.median(t * REFERENCE_S / c for t, c in setup),
        "throughput": work / sum(statistics.median(p.scaled[i] for p in passes)
                                 for i in range(n)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    unscaled = work / sum(statistics.median(p.elapsed[i] for p in passes) for i in range(n))
    calibration = statistics.median(c for p in passes for c in p.calibration)
    print(f"# {args.workload}: {len(passes)} passes of {n} calls, {len(setup)} set-up "
          f"probes; unscaled: setup_s {statistics.median(t for t, _ in setup):.4g}, "
          f"throughput {unscaled:.5g}; median calibration {calibration:.4g} s "
          f"(reference {REFERENCE_S} s)", file=sys.stderr)
    return {name: metric(values[name], unit) for name, unit in END_TO_END.items()}


def per_layer(args, wl, tally: dict) -> dict:
    from tracer import SELF_SPANS, Tracer

    plain = Pass(wl, True, tally)
    tracer = Tracer()
    traced = Pass(wl, False, tally, tracer=tracer)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write_spans(out_dir / f"spans-{args.workload}.tsv")

    counts = tracer.counts
    total, self_time = tracer.span_totals()
    values = {name: counts.get(name, 0) for name in PER_LAYER}
    for span, name in SELF_SPANS.items():
        values[name] = self_time.get(span, 0.0)
    values["cli.main_s"] = total.get("cli.main", 0.0)
    for s in SUITE_NAMES:
        values[f"suites.{s}_s"] = total.get(f"suites.{s}", 0.0)
    steps = counts["rewrite.steps"]
    values["rewrite.scan_nodes_per_step"] = counts["rewrite.scan_nodes"] / steps if steps else 0.0
    fv_nodes = counts["freevars.fv_nodes"]
    values["freevars.memo_hit_ratio"] = counts["freevars.memo_hits"] / fv_nodes if fv_nodes else 0.0
    values["cli.output_bytes"] = traced.output_bytes
    untraced_s, traced_s = sum(plain.elapsed), sum(traced.elapsed)
    values["bench.untraced_s"] = untraced_s
    values["bench.traced_s"] = traced_s
    values["bench.trace_overhead"] = traced_s / untraced_s
    values["bench.step_cost_ratio"] = wl.step_cost_ratio(plain.elapsed, plain.units)
    values["bench.slowest_call_s"] = max(plain.elapsed)
    values["bench.first_output_ms"] = 1000 * statistics.median(
        t for t, is_cli in zip(plain.response, wl.cli) if is_cli)
    return {name: metric(values[name], unit) for name, unit in PER_LAYER.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "exsub" / "__init__.py").is_file():
        print(f"error: exsub sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.probe_setup:
        probe_setup(args)
        return 0
    wl = build(args)
    import exsub
    if Path(exsub.__file__).resolve().parent != SRC / "exsub":
        print(f"error: imported exsub from {exsub.__file__}, not {SRC}", file=sys.stderr)
        return 2
    tally = {"attempted": 0, "failed": 0}
    metrics = (per_layer if args.trace else end_to_end)(args, wl, tally)
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    correct = tally["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": tally["attempted"],
                      "failed": tally["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

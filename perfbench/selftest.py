"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload briefly, untraced and traced, and checks that each
prints every metric BENCHMARK.json names, with its unit.  Then shows that
wrong references make the checks fail: the numeral c_{k*k+1} on church, in
this process; and, in a copy of the repository whose reference.json holds
one wrong step count and two wrong digests, that the command reports each
and exits non-zero.  Last, that without the exsub sources it exits non-zero
without printing a result.  Takes about two minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(*args: str, cwd: Path = ROOT) -> tuple[int, str, str]:
    out = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                         capture_output=True, text=True, timeout=600)
    return out.returncode, out.stdout, out.stderr


def numeral_check_fires() -> bool:
    """Whether the church check rejects normalize's result for k=4 when it
    expects the numeral c_{k*k+1}."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads
    wl = workloads.Church(0)
    raw, _ = wl.run(0)
    right = workloads.numeral
    workloads.numeral = lambda n: right(n + 1)
    try:
        return wl.check(0, raw, False) is not None
    finally:
        workloads.numeral = right


def copy_repo(dest: Path, with_src: bool) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    skip = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, dest / "perfbench", ignore=skip)
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=skip)


def wrong_reference() -> tuple[dict, dict[str, list[str]]]:
    """reference.json with wrong values, and the calls each workload must
    then report as failed."""
    ref = json.loads((HERE / "reference.json").read_text())
    ref["church"]["4"]["steps"] += 1
    ref["trace"]["8"]["stdout_sha256"] = "0" * 64
    suite = next(iter(ref["harness"]["0"]))
    ref["harness"]["0"][suite] = "0" * 64
    return ref, {"church": ["normalize k=4", "reduce k=8"], "harness": [suite]}


def expect(cond: bool, what: str, failures: list[str]) -> None:
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures: list[str] = []
    for w in spec["workloads"]:
        name = w["name"]
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            code, out, _ = run("--workload", name, "--seed", "0", "--seconds", "1",
                               "--trace", trace)
            result = json.loads(out.splitlines()[-1])
            expect(code == 0 and result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1, f"{name} --trace {trace} passes its checks",
                   failures)
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want, f"{name} --trace {trace} emits every {group} metric",
                   failures)
            if group == "end_to_end":
                expect(all(v["value"] > 0 for v in result["metrics"].values()),
                       f"{name} end-to-end metrics are non-zero", failures)
    expect(numeral_check_fires(), "church rejects a normal form that is not c_{k*k+1}",
           failures)
    (HERE / "out").mkdir(exist_ok=True)
    ref, must_fail = wrong_reference()
    with tempfile.TemporaryDirectory(dir=HERE / "out") as copy:
        copy_repo(Path(copy), with_src=True)
        (Path(copy) / "perfbench" / "reference.json").write_text(json.dumps(ref))
        for w in spec["workloads"]:
            name = w["name"]
            code, out, err = run("--workload", name, "--seed", "0", "--seconds", "1",
                                 "--trace", "0", cwd=Path(copy))
            result = json.loads(out.splitlines()[-1])
            reported = all(f"CHECK FAILED {call}:" in err for call in must_fail[name])
            expect(code != 0 and not result["correct"] and reported,
                   f"{name} with a wrong reference fails {must_fail[name]} and exits non-zero",
                   failures)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as bare:
        copy_repo(Path(bare), with_src=False)
        code, out, _ = run("--workload", "church", "--seed", "0", "--seconds", "1",
                           "--trace", "0", cwd=Path(bare))
        expect(code != 0 and not out.strip(), "without src/ it exits non-zero, printing nothing",
               failures)
    print(f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the values that the benchmark's checks compare against.

    python3 perfbench/record_reference.py

Writes perfbench/reference.json: step counts and trace digests for the
normalize and `exsub reduce` calls of church, and the digests of the
`exsub test --json` output of every suite of harness at the recorded
seeds.  Run it only on a commit whose outputs are trusted; a
faster engine must reproduce these values, not re-record them.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402

RECORDED_SEEDS = (0, 1)


def results(wl) -> list:
    return [wl.run(i)[0] for i in range(len(wl.calls))]


def main() -> None:
    ref = {"church": {}, "trace": {}, "harness": {}}
    church = workloads.Church(0)
    for i, ((kind, k, _), raw) in enumerate(zip(church.calls, results(church))):
        if kind == "normalize":
            ref["church"][str(k)] = {"steps": church.units(i, raw),
                                     "trace_sha256": workloads.sha256(raw[1].to_text())}
        else:
            ref["trace"][str(k)] = {"steps": church.units(i, raw),
                                    "stdout_sha256": workloads.sha256(raw[1])}
    for seed in RECORDED_SEEDS:
        harness = workloads.Harness(seed)
        ref["harness"][str(seed)] = {name: workloads.sha256(raw[1])
                                     for (name, _), raw in zip(harness.calls, results(harness))}
    workloads.REFERENCE_FILE.write_text(json.dumps(ref, indent=1) + "\n")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Record goldens.json: the outputs and exact counts later runs compare with.

    python3 perfbench/record_goldens.py [--seeds 0 7]

Run it only at a commit whose outputs are known to be right. For every
workload it records, from one untraced and one traced pass per seed:
  static  seed-independent outputs (simulated totals and event counts, sweep
          CSV and timeline JSONL digests, the tradeoff table without MSE);
  seeded  sha256 of every collective's output bits, per seed;
  mse     each flavor's MSE at the first seed (later runs allow MSE_REL_TOL);
  counts  the traced run's exact per-layer counts.
Seed-independent outputs and counts must agree across the seeds, and the
other seeds' MSEs must fall within the band, or nothing is written.
"""

import run  # first: pins the NumPy/BLAS thread pools before NumPy loads

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def record(workload, seeds: list[int]) -> dict:
    golden = {"static": {}, "seeded": {}, "mse": {}, "counts": None}
    for seed in seeds:
        result = run.run_workload(workload, seed, 0, True, None, record=True, setup_repeats=1)
        if not result["correct"]:
            raise SystemExit(f"{workload.name} seed {seed}: {result['failures']}")
        rec = result["recorded"]
        for kind, expected in (("static", golden["static"]), ("counts", golden["counts"])):
            got = rec["static"] if kind == "static" else result["counts"]
            if expected and expected != got:
                raise SystemExit(f"{workload.name}: {kind} differ between seeds")
        golden["static"] = rec["static"]
        golden["counts"] = result["counts"]
        golden["seeded"][str(seed)] = rec["seeded"]
        if not golden["mse"]:
            golden["mse"] = rec["mse"]
        check = harness.Checker(golden, seed)
        if not check.call("mse band", [("mse", k, v) for k, v in rec["mse"].items()]):
            raise SystemExit(f"{workload.name} seed {seed}: {check.failures}")
        print(f"{workload.name} seed {seed}: {result['attempted']} calls recorded", flush=True)
    return golden


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Record perfbench/goldens.json.")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 7])
    parser.add_argument("--workload", choices=list(WORKLOADS), nargs="*", default=list(WORKLOADS))
    args = parser.parse_args(argv)
    goldens = harness.load_goldens()
    for name in args.workload:
        goldens[name] = record(WORKLOADS[name], args.seeds)
    harness.GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"wrote {harness.GOLDENS}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

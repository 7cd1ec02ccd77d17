#!/usr/bin/env python3
"""qarsim benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is tradeoff_int8, fp8_deep_ring, sim_sweep, or `all`, which runs each
workload in a child process of its own (peak RSS is a per-process high-water
mark). Passes repeat until S seconds have gone, at least one of each kind.

--trace 0 times untraced passes and reports the end-to-end metrics: run_s
(median pass wall time), setup_s (median of fresh-interpreter set-ups) and
peak_rss_mib. --trace 1 alternates untraced and traced passes and reports the
per-layer metrics from the traced ones plus trace.overhead_frac. Either way
every call's outputs are checked against goldens.json, and the last line of
standard output is one JSON object: correct, attempted, failed, metrics.
The full result, with quartiles, sample counts and machine details, goes to
perfbench/out/BENCH_<workload>_seed<N>_trace<T>.json; spans of a traced run
go to perfbench/out/trace_<workload>_seed<N>.jsonl.
"""

import os
import sys

# NumPy/BLAS thread pools, pinned to one thread. Their sizes are read once,
# when NumPy loads, so this runs before anything imports NumPy; importers of
# this module (the golden recorder, the smoke test) get the same pinning.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import harness  # noqa: E402
from harness import Checker, PassStats, Probes, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 9

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}

# Set-up as a user pays it: a fresh interpreter imports qarsim, loads the
# preset and, where the workload has them, generates its device inputs.
_SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import qarsim
from qarsim.presets import DEFAULT_PRESET, load_preset
load_preset(DEFAULT_PRESET)
rows, cols, n, seed = map(int, sys.argv[2:6])
if n:
    qarsim.device_inputs(rows, cols, n, seed)
print(time.perf_counter() - t0)
"""


def measure_setup(workload, seed: int, repeats: int) -> list[float]:
    args = [sys.executable, "-c", _SETUP_PROBE, str(harness.SRC),
            *map(str, workload.setup_inputs or (0, 0, 0)), str(seed)]
    samples = []
    for _ in range(repeats):
        done = subprocess.run(args, capture_output=True, text=True, check=True, timeout=120)
        samples.append(float(done.stdout.split()[-1]))
    return samples


def machine_details() -> dict:
    info = {
        "nproc": os.cpu_count(),
        "cpu_model": platform.processor() or platform.machine(),
        "mem_total_kib": None,
        "python": platform.python_version(),
        "numpy": harness.np.__version__,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    with contextlib.suppress(OSError):
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                info["mem_total_kib"] = int(line.split()[1])
                break
    return info


def summary(values: list[float]) -> dict | None:
    """Median, quartiles and sample count."""
    if not values:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "p25": q1, "p75": q3, "n": len(values)}


def run_workload(workload, seed: int, seconds: float, trace: bool, golden: dict | None,
                 record: bool = False, setup_repeats: int = SETUP_REPEATS,
                 spans_path: Path | None = None) -> dict:
    """Run one workload closed-loop for `seconds` and summarise it.

    With `record` set, outputs are recorded instead of compared, and the
    result's "recorded" entry holds them for goldens.json.
    """
    checker = Checker(golden, seed, record=record)
    tracer = Tracer() if trace else None
    plain = Probes(checker)
    traced = Probes(checker, tracer) if trace else None
    setup_samples = measure_setup(workload, seed, setup_repeats)

    with (traced or plain).installed():
        state = workload.setup(seed)

    times = {False: [], True: []}
    per_pass: list[tuple[bool, PassStats]] = []
    traced_ids = []
    start = time.perf_counter()
    k = 0
    while not (times[False] and (times[True] or not trace)) \
            or time.perf_counter() - start < seconds:
        k += 1
        use_trace = trace and k % 2 == 0
        probes = traced if use_trace else plain
        probes.stats = PassStats()
        if use_trace:
            tracer.pass_id = k
            traced_ids.append(k)
        with probes.installed():
            t0 = time.perf_counter()
            try:
                workload.run_pass(probes, seed, state)
            except Exception as exc:  # one failed pass must not end the run
                traceback.print_exc()
                checker.raised(f"{workload.name} pass {k}", exc)
            elapsed = time.perf_counter() - t0 - probes.stats.check_s
        times[use_trace].append(elapsed)
        per_pass.append((use_trace, probes.stats))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    untraced = [st for is_traced, st in per_pass if not is_traced]
    result = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine_details(),
        "run_s": summary(times[False]),
        "setup_s": summary(setup_samples),
        "peak_rss_mib": peak_rss_mib,
        "failed_frac": checker.failed / max(checker.attempted, 1),
        "reduced_elems_per_s": summary(
            [st.reduced_elems / st.collective_s for st in untraced if st.collective_s]),
        "sim_events_per_s": summary([st.sim_events / st.sim_s for st in untraced if st.sim_s]),
        "attempted": checker.attempted,
        "failed": checker.failed,
        "failures": checker.failures,
        "model_validation": "unvalidated: no hardware reference results",
    }
    if trace:
        result.update(trace_report(tracer, traced_ids, times, golden))
        if spans_path is not None:
            tracer.write_jsonl(spans_path)
    if record:
        result["recorded"] = checker.record
    result["correct"] = checker.failed == 0 and result.get("trace_violations", 0) == 0
    return result


def trace_report(tracer: Tracer, traced_ids: list[int], times: dict,
                 golden: dict | None) -> dict:
    """Per-layer metrics: set-up spans plus the median over traced passes."""
    selfs, violations = harness.self_times(tracer.spans)
    setup = harness.layer_totals(tracer.spans, selfs, {0})
    passes = [harness.layer_totals(tracer.spans, selfs, {p}) for p in traced_ids]
    layers = {}
    for name, unit in harness.layer_metric_units().items():
        if name == harness.OVERHEAD_METRIC:
            continue
        values = [p[name] for p in passes]
        mid = statistics.median_low if unit in ("count", "B") else statistics.median
        layers[name] = {"value": setup[name] + mid(values), "unit": unit}
    overhead = statistics.median(times[True]) / statistics.median(times[False]) - 1
    layers[harness.OVERHEAD_METRIC] = {"value": overhead, "unit": "ratio"}
    counts = {name: m["value"] for name, m in layers.items()
              if name.rsplit(".", 1)[1] in harness.COUNT_STATS}
    recorded = (golden or {}).get("counts")
    return {
        "per_layer": layers,
        "trace_passes": summary(times[True]),
        "trace_overhead_frac": overhead,
        "trace_violations": violations,
        "counts_identical_across_passes": all(
            p[name] == passes[0][name] for p in passes for name in counts),
        "counts_match_recorded": None if recorded is None else recorded == counts,
        "counts": counts,
    }


def final_metrics(result: dict) -> dict:
    if result["trace"]:
        return result["per_layer"]
    return {
        "run_s": {"value": result["run_s"]["median"], "unit": END_TO_END_UNITS["run_s"]},
        "setup_s": {"value": result["setup_s"]["median"], "unit": END_TO_END_UNITS["setup_s"]},
        "peak_rss_mib": {"value": result["peak_rss_mib"], "unit": END_TO_END_UNITS["peak_rss_mib"]},
    }


def report(result: dict) -> str:
    """Human-readable lines for every end-to-end figure, with its unit."""
    lines = [f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}"]
    for name, unit in (("run_s", "s"), ("setup_s", "s"), ("reduced_elems_per_s", "elements/s"),
                       ("sim_events_per_s", "events/s"), ("trace_passes", "s")):
        s = result.get(name)
        if s:
            lines.append(f"  {name:<20} median {s['median']:.6g} {unit}  "
                         f"p25 {s['p25']:.6g}  p75 {s['p75']:.6g}  n={s['n']}")
    lines.append(f"  {'peak_rss_mib':<20} {result['peak_rss_mib']:.1f} MiB")
    lines.append(f"  {'failed_frac':<20} {result['failed_frac']:.6g} ratio  "
                 f"({result['failed']} of {result['attempted']} calls)")
    if result["trace"]:
        lines.append(f"  {'trace_overhead_frac':<20} {result['trace_overhead_frac']:.4f} ratio")
        lines.append(f"  trace violations {result['trace_violations']}  counts identical "
                     f"{result['counts_identical_across_passes']}  counts match recorded "
                     f"{result['counts_match_recorded']}")
    lines += [f"  FAILED {msg}" for msg in result["failures"]]
    return "\n".join(lines)


def final_line(result: dict) -> str:
    return json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": final_metrics(result)})


def run_all(args) -> int:
    """Each workload in a child process of its own; merged final line."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode or not lines:
            return done.returncode or 1
        last = json.loads(lines[-1])
        merged["correct"] &= last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    golden = harness.load_goldens().get(args.workload)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                          golden, spans_path=OUT / f"trace_{args.workload}_seed{args.seed}.jsonl")
    (OUT / f"BENCH_{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(report(result))
    print(final_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Smoke test of the benchmark harness on tiny inputs; runs in a few seconds.

    python3 -m pytest -q perfbench/test_smoke.py

It records goldens for tiny versions of the three workloads, then checks that
a run prints every metric BENCHMARK.json names, with its unit, and that the
output check flags a perturbed digest.
"""

import copy
import json
from pathlib import Path

import pytest

import run  # first: pins the NumPy/BLAS thread pools before NumPy loads

import harness  # noqa: E402
from workloads import Fp8DeepRing, SimSweep, TradeoffInt8  # noqa: E402

MIB = 1 << 20
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
TINY = {
    "tradeoff_int8": TradeoffInt8(rows=128, cols=128, num_devices=4),
    "fp8_deep_ring": Fp8DeepRing(rows=128, cols=64, num_devices=4),
    "sim_sweep": SimSweep(sizes=(MIB, 2 * MIB), device_counts=(8,), timeline_shape=(512, 1024)),
}


def _run(workload, golden, trace=False, seed=0):
    return run.run_workload(workload, seed, 0, trace, golden, setup_repeats=1)


@pytest.fixture(scope="module")
def goldens():
    out = {}
    for name, w in TINY.items():
        res = run.run_workload(w, 0, 0, True, None, record=True, setup_repeats=1)
        assert res["correct"], res["failures"]
        out[name] = dict(res["recorded"], seeded={"0": res["recorded"]["seeded"]},
                         counts=res["counts"])
    return out


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert list(TINY) == list(run.WORKLOADS)


@pytest.mark.parametrize("name", list(TINY))
def test_every_metric_printed_with_unit(name, goldens):
    for trace, listed in ((False, BENCHMARK["end_to_end"]), (True, BENCHMARK["per_layer"])):
        res = _run(TINY[name], goldens[name], trace)
        last = json.loads(run.final_line(res))
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
        units = {m["name"]: m["unit"] for m in listed}
        assert {k: v["unit"] for k, v in last["metrics"].items()} == units
        assert all(isinstance(v["value"], (int, float)) for v in last["metrics"].values())
        report = run.report(res)
        assert "failed_frac" in report and "run_s" in report
        if trace:
            assert res["trace_violations"] == 0
            assert res["counts_match_recorded"] is True


@pytest.mark.parametrize("name,kind", [("fp8_deep_ring", "seeded"), ("tradeoff_int8", "seeded"),
                                       ("sim_sweep", "static")])
def test_digest_check_flags_perturbed_digest(name, kind, goldens):
    bad = copy.deepcopy(goldens[name])
    table = bad["seeded"]["0"] if kind == "seeded" else bad["static"]
    key = next(k for k, v in table.items() if isinstance(v, str))  # a sha256 digest
    table[key] = "0" * 64
    res = _run(TINY[name], bad)
    assert not res["correct"] and res["failed"] >= 1
    assert any(key in msg for msg in res["failures"])


def test_unrecorded_seed_falls_back_to_determinism_and_mse_band(goldens):
    res = _run(TINY["fp8_deep_ring"], goldens["fp8_deep_ring"], seed=3)
    assert res["correct"], res["failures"]
    bad = copy.deepcopy(goldens["fp8_deep_ring"])
    bad["mse"] = {k: v * 2 for k, v in bad["mse"].items()}
    assert not _run(TINY["fp8_deep_ring"], bad, seed=3)["correct"]


def test_self_time_excludes_children_and_flags_escapes():
    spans = [harness.Span("p", 0, 100, -1, 1), harness.Span("c", 10, 40, 0, 1),
             harness.Span("c", 50, 60, 0, 1)]
    selfs, bad = harness.self_times(spans)
    assert selfs == [60, 30, 10] and bad == 0
    escaped = spans + [harness.Span("c", 90, 130, 0, 1)]
    assert harness.self_times(escaped)[1] == 1
    overlapping = spans + [harness.Span("c", 0, 90, 0, 1)]
    assert harness.self_times(overlapping)[1] == 1  # parent self time < 0

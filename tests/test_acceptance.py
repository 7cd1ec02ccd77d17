"""Acceptance gate: every shipped claim, one test and one printed verdict each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines as
they happen; without -s pytest shows them for failing tests only.
"""

import json
import time

import numpy as np
import pytest

from qarsim.analysis import auto_minishards, device_inputs, mse
from qarsim.cli import main as cli_main
from qarsim.collectives import (
    CollectiveConfig,
    Variant,
    all_reduce,
    baseline_allreduce_bf16,
    naive_lowp_allreduce,
)
from qarsim.layout import CHUNK_ELEMS, Bf16Tensor, PartitionSpec
from qarsim.numerics import Codec, bf16_bits, decode, encode
from qarsim.presets import load_preset
from qarsim.quant import dequantize_shard, quantize_shard, absmax_grid, scales_from_absmax
from qarsim.simnet import ComputeParams, LinkParams, idle_time, lower_bound, simulate, simulate_ideal_2to1, simulate_naive

MIB = 1 << 20


def verdict(name: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def quant_cfg(variant, spec, rs, ag, codec=Codec.INT8):
    return CollectiveConfig(variant, spec, quantize_rs=rs, quantize_ag=ag, codec=codec)


def test_criterion_1_unquantized_variants_bit_exact():
    t0 = time.monotonic()
    failures = []
    for n in (2, 4, 8):
        elems = n * 4 * CHUNK_ELEMS
        rng = np.random.default_rng(100 + n)
        ints = (rng.integers(-16, 16, elems).astype(np.float32) for _ in range(n))
        inputs = [Bf16Tensor(bf16_bits(x), 1, elems) for x in ints]
        exact = np.sum([t.values() for t in inputs], axis=0, dtype=np.float32)
        spec = PartitionSpec(n, 2, 2)
        for variant in (Variant.FULL_LOOP, Variant.SEMI_LOOP):
            outs = all_reduce(inputs, CollectiveConfig(variant, spec))
            if not all(np.array_equal(o.data, exact) for o in outs):
                failures.append((n, variant.value))
        base = baseline_allreduce_bf16(inputs, spec)
        if not all(np.array_equal(o.data, exact) for o in base):
            failures.append((n, "baseline"))
    wall = time.monotonic() - t0
    ok = not failures and wall < 10.0
    assert verdict("criterion 1", ok,
                   f"integer tensors bit-exact across N=2,4,8 (failures={failures}, {wall:.1f}s < 10s)")


def test_criterion_2_mse_bands_at_4096():
    t0 = time.monotonic()
    rows = cols = 4096
    n = 8
    spec = PartitionSpec(n, auto_minishards(rows * cols, n), 2)
    inputs = device_inputs(rows, cols, n, seed=0)
    base = baseline_allreduce_bf16(inputs, spec)[0]

    def err(variant, rs, ag):
        return mse(base, all_reduce(inputs, quant_cfg(variant, spec, rs, ag))[0])

    got = {
        "full_both": (err(Variant.FULL_LOOP, True, True), 0.0007, 0.0028),
        "semi_both": (err(Variant.SEMI_LOOP, True, True), 0.0005, 0.002),
        "full_ag": (err(Variant.FULL_LOOP, False, True), 0.00015, 0.0006),
        "naive": (mse(base, naive_lowp_allreduce(inputs, Codec.F8E5M2, spec)[0]), 0.065, 0.26),
    }
    wall = time.monotonic() - t0
    bad = {k: v for k, (v, lo, hi) in got.items() if not lo <= v <= hi}
    ok = not bad and wall < 120.0
    detail = ", ".join(f"{k}={v:.6f} in [{lo},{hi}]" for k, (v, lo, hi) in got.items())
    assert verdict("criterion 2", ok, f"{detail} ({wall:.0f}s < 120s)")


def test_criterion_3_error_orderings_over_seeds():
    # Every flavor is scored against the exact float64 sum of the BF16-rounded
    # inputs (what the ring reduces), not against the BF16 baseline. The
    # baseline is the full-loop BF16 ring, so its reduce-scatter is bit for bit
    # the one in full_ag: against it full_ag carries only its final quantization
    # step while semi_ag also carries the summation-order difference between
    # the two reduction trees, and the two variants cannot be ranked.
    rows = cols = 1024
    n = 8
    spec = PartitionSpec(n, auto_minishards(rows * cols, n), 2)
    legs = {
        "semi_rs<=full_rs": 0, "semi_ag<=full_ag": 0, "semi_both<=full_both": 0,
        "full_ag<=full_both": 0, "semi_ag<=semi_both": 0, "int8_both<naive/10": 0,
    }
    flavors = {
        "full_rs": (Variant.FULL_LOOP, True, False),
        "full_ag": (Variant.FULL_LOOP, False, True),
        "full_both": (Variant.FULL_LOOP, True, True),
        "semi_rs": (Variant.SEMI_LOOP, True, False),
        "semi_ag": (Variant.SEMI_LOOP, False, True),
        "semi_both": (Variant.SEMI_LOOP, True, True),
    }
    seeds = 20
    mse_sums = dict.fromkeys(["baseline", *flavors, "naive"], 0.0)
    for seed in range(seeds):
        inputs = device_inputs(rows, cols, n, seed)
        exact = np.zeros(rows * cols, dtype=np.float64)
        for t in inputs:
            exact += t.values()
        e = {"baseline": mse(exact, baseline_allreduce_bf16(inputs, spec)[0])}
        for name, (variant, rs, ag) in flavors.items():
            e[name] = mse(exact, all_reduce(inputs, quant_cfg(variant, spec, rs, ag))[0])
        e["naive"] = mse(exact, naive_lowp_allreduce(inputs, Codec.F8E5M2, spec)[0])
        for name, v in e.items():
            mse_sums[name] += v
        legs["semi_rs<=full_rs"] += e["semi_rs"] <= e["full_rs"]
        legs["semi_ag<=full_ag"] += e["semi_ag"] <= e["full_ag"]
        legs["semi_both<=full_both"] += e["semi_both"] <= e["full_both"]
        legs["full_ag<=full_both"] += e["full_ag"] <= e["full_both"]
        legs["semi_ag<=semi_both"] += e["semi_ag"] <= e["semi_both"]
        legs["int8_both<naive/10"] += e["full_both"] < e["naive"] / 10 and e["semi_both"] < e["naive"] / 10
    bad = {k: v for k, v in legs.items() if v < 19}
    ok = not bad
    assert verdict("criterion 3", ok,
                   f"ordering legs over {seeds} seeds: " +
                   ", ".join(f"{k} {v}/{seeds}" for k, v in legs.items()) +
                   "; seed-mean MSE vs exact sum: " +
                   ", ".join(f"{k}={v / seeds:.3g}" for k, v in mse_sums.items()))


def test_criterion_4_bound_convergence():
    link = LinkParams(4.5e10, 0.0)
    fast = ComputeParams(1e15, 1e15, 1e15, 1e15, 1e15)
    worst = 0.0
    for n in (4, 8, 16):
        for d in (8 * MIB, 64 * MIB):
            for variant in (Variant.FULL_LOOP, Variant.SEMI_LOOP):
                cfg = CollectiveConfig(variant, PartitionSpec(n, 1, 1))
                rs_span = simulate(cfg, d, link, fast).stage_end("rs")
                bound = lower_bound(cfg, d, link)
                worst = max(worst, abs(rs_span / bound - 1))
    ok = worst <= 0.01
    assert verdict("criterion 4", ok,
                   f"reduce-scatter span vs bandwidth bound, worst relative gap {worst:.5%} <= 1%")


def test_criterion_5_calibrated_speedups():
    link, comp = load_preset("v5e-like")
    results = {}
    for size in (MIB, 256 * MIB):
        elems = size // 2
        spec = PartitionSpec(8, auto_minishards(elems, 8), 2)
        t_base = simulate(CollectiveConfig(Variant.FULL_LOOP, spec), size, link, comp).total_time
        t_quant = simulate(quant_cfg(Variant.FULL_LOOP, spec, True, True), size, link, comp).total_time
        results[size] = (t_quant / t_base, t_quant, t_base)
    spec = PartitionSpec(8, auto_minishards(128 * MIB, 8), 2)
    t_ideal = simulate_ideal_2to1(spec, 256 * MIB, link, comp).total_time
    vs_ideal = results[256 * MIB][1] / t_ideal
    small, big = results[MIB][0], results[256 * MIB][0]
    ok = 0.95 <= small <= 1.05 and 0.50 <= big <= 0.60 and vs_ideal <= 1.10
    assert verdict("criterion 5", ok,
                   f"time ratio {small:.3f} in 1.00+-0.05 @1MiB, {big:.3f} in 0.55+-0.05 @256MiB, "
                   f"{vs_ideal:.3f} <= 1.10x ideal 2:1 transport")


def test_criterion_6_microshard_pipelining():
    link, comp = load_preset("v5e-like")
    size = 2 * 4096 * 4096
    totals, idles = {}, {}
    for u in (1, 2, 4):
        spec = PartitionSpec(8, 32, u)
        tl = simulate(quant_cfg(Variant.FULL_LOOP, spec, True, True), size, link, comp)
        totals[u] = tl.total_time
        idles[u] = idle_time(tl)
    ok = (idles[2] <= idles[1] + 1e-12
          and totals[2] <= totals[1] + 1e-15 and totals[4] <= totals[2] + 1e-15)
    assert verdict("criterion 6", ok,
                   f"idle(u=2)={idles[2] * 1e6:.1f}us <= idle(u=1)={idles[1] * 1e6:.1f}us; "
                   f"totals us u=1..4: {totals[1] * 1e6:.2f} >= {totals[2] * 1e6:.2f} >= {totals[4] * 1e6:.2f}")


def test_criterion_7_quantization_guarantees():
    # exhaustive fp8 round trips
    rt_ok = True
    for codec in (Codec.F8E4M3, Codec.F8E5M2):
        codes = np.arange(256, dtype=np.uint8)
        vals = decode(codes, codec)
        keep = ~np.isnan(vals)
        rt_ok &= bool(np.array_equal(encode(vals[keep], codec), codes[keep]))
    # half-scale error bound across 1e5 random two-chunk scale blocks, in
    # batches to keep the arrays modest
    rng = np.random.default_rng(2024)
    bound_ok = True
    max_ratio = 0.0
    for _ in range(10):
        blocks = (rng.standard_normal((10_000, 2, 8, 128)) * 3.0).astype(np.float32)
        qs = [quantize_shard(b, Codec.INT8) for b in blocks]  # one grid per message
        back = np.stack([dequantize_shard(q) for q in qs])
        scales = np.stack([q.grid for q in qs])[:, None]
        ratio = np.abs(back - blocks) / scales
        # allow one f32 rounding of the quotient on top of the exact half-scale bound
        bound_ok &= bool(np.all(ratio <= 0.5 + 1e-5))
        max_ratio = max(max_ratio, float(np.max(ratio)))
    # partial scans merged by running max reproduce the full scan exactly
    chunks = (rng.standard_normal((16, 8, 128)) * 10).astype(np.float32)
    chunks[:, 4, :] = 0.0
    full = quantize_shard(chunks, Codec.INT8).grid
    merge_ok = True
    for split in (1, 5, 8, 15):
        merged = scales_from_absmax(
            np.maximum(absmax_grid(chunks[:split]), absmax_grid(chunks[split:])), Codec.INT8)
        merge_ok &= bool(np.array_equal(merged, full))
    ok = rt_ok and bound_ok and merge_ok
    assert verdict("criterion 7", ok,
                   f"fp8 round-trip all non-NaN codes: {rt_ok}; int8 error <= scale/2 "
                   f"(max err/scale {max_ratio:.6f}) on 1e5 blocks: {bound_ok}; "
                   f"partial-scan merge exact: {merge_ok}")


def test_criterion_8_cli_study_byte_identical(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rows": 1024, "cols": 1024, "num_devices": 8, "seed": 5}))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    rc1 = cli_main(["tradeoff", "--config", str(cfg), "--output", str(a)])
    rc2 = cli_main(["tradeoff", "--config", str(cfg), "--output", str(b)])
    same = a.read_bytes() == b.read_bytes()
    ok = rc1 == 0 and rc2 == 0 and same
    assert verdict("criterion 8", ok,
                   f"two tradeoff runs, same seed: exit codes ({rc1},{rc2}), byte-identical={same}")

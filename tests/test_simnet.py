"""Event-driven performance model: schedule structure, determinism, bounds."""

import json
import re

import numpy as np
import pytest

from qarsim.collectives import CollectiveConfig, Variant
from qarsim.layout import DivisibilityError, PartitionSpec
from qarsim.simnet import (
    ComputeParams,
    LinkParams,
    idle_time,
    lower_bound,
    simulate,
    simulate_ideal_2to1,
    simulate_naive,
)

MIB = 1 << 20

LINK = LinkParams(bandwidth_bytes_per_s=4.5e10, hop_latency_s=1.5e-5)
COMP = ComputeParams(dequant_rate=8e11, add_rate=1.6e12, scan_rate=1.6e12,
                     encode_rate=8e11, cast_rate=1.6e12)
FAST = ComputeParams(1e15, 1e15, 1e15, 1e15, 1e15)


def small_cfg(n=4, m=2, u=2, variant=Variant.FULL_LOOP, rs=True, ag=True):
    return CollectiveConfig(variant, PartitionSpec(n, m, u), quantize_rs=rs, quantize_ag=ag)


def small_bytes(cfg, chunks_per_micro=1):
    spec = cfg.spec
    return (2 * spec.num_devices * spec.minishards_per_shard
            * spec.microshards_per_minishard * chunks_per_micro * 1024)


def test_simulation_is_deterministic():
    cfg = small_cfg()
    nbytes = small_bytes(cfg)
    a = simulate(cfg, nbytes, LINK, COMP)
    b = simulate(cfg, nbytes, LINK, COMP)
    assert [(e.device, e.resource, e.start_s, e.end_s, e.label) for e in a.events] == \
           [(e.device, e.resource, e.start_s, e.end_s, e.label) for e in b.events]
    na = simulate_naive(cfg.spec, nbytes, LINK, COMP)
    nb = simulate_naive(cfg.spec, nbytes, LINK, COMP)
    assert na.total_time == nb.total_time and len(na.events) == len(nb.events)


@pytest.mark.parametrize("variant", [Variant.FULL_LOOP, Variant.SEMI_LOOP])
@pytest.mark.parametrize("quant", [False, True])
def test_no_resource_overlap(variant, quant):
    cfg = small_cfg(variant=variant, rs=quant, ag=quant)
    tl = simulate(cfg, small_bytes(cfg), LINK, COMP)
    streams = {}
    for e in tl.events:
        streams.setdefault((e.device, e.resource), []).append(e)
    for evs in streams.values():
        evs.sort(key=lambda e: (e.start_s, e.end_s))
        for prev, cur in zip(evs, evs[1:]):
            assert cur.start_s >= prev.end_s - 1e-15


def test_lower_bound_worked_example():
    assert lower_bound(Variant.FULL_LOOP, 4, 8 * MIB, 1e9) == pytest.approx(0.003145728, rel=1e-12)
    assert lower_bound(Variant.SEMI_LOOP, 4, 8 * MIB, 1e9) == pytest.approx(8 * MIB / (2 * 1e9), rel=1e-12)


@pytest.mark.parametrize("variant", [Variant.FULL_LOOP, Variant.SEMI_LOOP])
def test_rs_span_approaches_bandwidth_bound(variant):
    link = LinkParams(4.5e10, 0.0)
    n, d = 8, 8 * MIB
    cfg = CollectiveConfig(variant, PartitionSpec(n, 1, 1))
    tl = simulate(cfg, d, link, FAST)
    rs_span = tl.stage_end("rs")
    bound = lower_bound(variant, n, d, link.bandwidth_bytes_per_s)
    assert rs_span >= bound - 1e-15  # never beats the bound
    assert rs_span / bound - 1 <= 0.01


def test_total_time_monotone_in_bandwidth_and_rates():
    cfg = small_cfg(n=8)
    nbytes = 8 * MIB
    t1 = simulate(cfg, nbytes, LinkParams(2e10, 1.5e-5), COMP).total_time
    t2 = simulate(cfg, nbytes, LinkParams(4e10, 1.5e-5), COMP).total_time
    t3 = simulate(cfg, nbytes, LinkParams(8e10, 1.5e-5), COMP).total_time
    assert t1 >= t2 >= t3
    slow = ComputeParams(4e11, 8e11, 8e11, 4e11, 8e11)
    ts = simulate(cfg, nbytes, LINK, slow).total_time
    tf = simulate(cfg, nbytes, LINK, COMP).total_time
    assert ts >= tf
    t0 = simulate(cfg, nbytes, LinkParams(4.5e10, 0.0), COMP).total_time
    assert tf >= t0  # removing latency can only help


def test_finer_microshards_never_slower():
    nbytes = 2 * 8 * 32 * 64 * 1024  # N=8, m=32, 64 chunks per minishard
    totals, idles = [], []
    for u in (1, 2, 4):
        cfg = CollectiveConfig(Variant.FULL_LOOP, PartitionSpec(8, 32, u),
                               quantize_rs=True, quantize_ag=True)
        tl = simulate(cfg, nbytes, LINK, COMP)
        totals.append(tl.total_time)
        idles.append(idle_time(tl))
    assert totals[1] <= totals[0] + 1e-15
    assert totals[2] <= totals[1] + 1e-15
    assert idles[1] <= idles[0] + 1e-12


def test_metadata_sent_before_payload_each_iteration():
    cfg = small_cfg()
    tl = simulate(cfg, small_bytes(cfg), LINK, COMP)
    meta = {}
    first_pay = {}
    for e in tl.events:
        m = re.match(r"rs:meta:it=(\d+):(\w+)$", e.label)
        if m:
            meta[(e.device, int(m.group(1)), m.group(2))] = e
        m = re.match(r"rs:pay:it=(\d+):(\w+):", e.label)
        if m:
            k = (e.device, int(m.group(1)), m.group(2))
            if k not in first_pay or e.start_s < first_pay[k].start_s:
                first_pay[k] = e
    assert meta and set(meta) == set(first_pay)
    for k, me in meta.items():
        assert me.end_s <= first_pay[k].start_s + 1e-15, k


def test_dequant_waits_for_payload_arrival_plus_latency():
    cfg = small_cfg()
    n = cfg.spec.num_devices
    tl = simulate(cfg, small_bytes(cfg), LINK, COMP)
    pay = {}
    for e in tl.events:
        m = re.match(r"rs:pay:it=(\d+):(\w+):g=(\d+):j=(\d+)$", e.label)
        if m:
            pay[(e.device, int(m.group(1)), m.group(2), int(m.group(3)), int(m.group(4)))] = e
    checked = 0
    for e in tl.events:
        m = re.match(r"rs:dq:it=(\d+):(\w+):g=(\d+):j=(\d+)$", e.label)
        if not m:
            continue
        it, dname, g, j = int(m.group(1)), m.group(2), int(m.group(3)), int(m.group(4))
        sender = (e.device - 1) % n if dname == "cw" else (e.device + 1) % n
        src = pay[(sender, it, dname, g, j)]
        assert e.start_s >= src.end_s + LINK.hop_latency_s - 1e-15
        checked += 1
    assert checked > 0


def test_encode_gated_on_every_microshard_scan():
    cfg = small_cfg(u=2)
    tl = simulate(cfg, small_bytes(cfg), LINK, COMP)
    scans = {}
    for e in tl.events:
        m = re.match(r"rs:scan:it=(\d+):(\w+):g=(\d+):j=(\d+)$", e.label)
        if m:
            k = (e.device, int(m.group(1)), m.group(2), int(m.group(3)))
            scans.setdefault(k, []).append(e.end_s)
    checked = 0
    for e in tl.events:
        m = re.match(r"rs:enc:it=(\d+):(\w+):g=(\d+):j=(\d+)$", e.label)
        if not m:
            continue
        # the scans of iteration it-1's receive pass feed iteration it's encode
        k = (e.device, int(m.group(1)) - 1, m.group(2), int(m.group(3)))
        assert len(scans[k]) == 2
        assert e.start_s >= max(scans[k]) - 1e-15
        checked += 1
    assert checked > 0


def test_fused_receive_pass_merges_vpu_work():
    cfg = small_cfg()
    nbytes = small_bytes(cfg)
    plain = simulate(cfg, nbytes, LINK, COMP)
    fused_comp = ComputeParams(8e11, 1.6e12, 1.6e12, 8e11, 1.6e12, fuse_recv_pass=True)
    fused = simulate(cfg, nbytes, LINK, fused_comp)
    assert any("rs:fused" in e.label for e in fused.events)
    assert not any(re.match(r"rs:dq:it=", e.label) for e in fused.events)
    assert any(re.match(r"rs:dq:it=", e.label) for e in plain.events)
    assert len(fused.events) < len(plain.events)
    # the fused pass runs at the slowest participating rate, never slower overall
    assert fused.total_time <= plain.total_time + 1e-15


def test_raw_ag_total_includes_final_hop_latency():
    cfg = small_cfg(rs=False, ag=False)
    tl = simulate(cfg, small_bytes(cfg), LINK, COMP)
    last_wire = max(e.end_s for e in tl.events if e.label.startswith("ag:raw"))
    assert tl.total_time >= last_wire + LINK.hop_latency_s - 1e-15
    assert any(e.label.startswith("ag:land") and e.start_s == e.end_s for e in tl.events)


def test_naive_and_ideal_orderings():
    spec = PartitionSpec(8, 1, 1)
    nbytes = 64 * MIB
    base = simulate(CollectiveConfig(Variant.FULL_LOOP, spec), nbytes, LINK, COMP).total_time
    naive = simulate_naive(spec, nbytes, LINK, COMP).total_time
    ideal = simulate_ideal_2to1(spec, nbytes, LINK, COMP).total_time
    assert ideal <= naive <= base
    assert ideal >= lower_bound(Variant.FULL_LOOP, 8, nbytes, LINK.bandwidth_bytes_per_s) / 2


def test_timeline_jsonl_schema_and_stages():
    cfg = small_cfg()
    tl = simulate(cfg, small_bytes(cfg), LINK, COMP)
    lines = tl.to_jsonl().strip().split("\n")
    assert len(lines) == len(tl.events)
    rec = json.loads(lines[0])
    assert set(rec) == {"device", "resource", "start_s", "end_s", "label"}
    for e in tl.events:
        assert e.end_s >= e.start_s >= 0.0
    assert tl.stage_end("rs") <= tl.stage_end("ag")
    assert tl.total_time == max(e.end_s for e in tl.events)


def test_idle_time_nonnegative_and_latency_sensitive():
    cfg = small_cfg(n=8)
    nbytes = 8 * MIB
    with_lat = idle_time(simulate(cfg, nbytes, LINK, COMP))
    without = idle_time(simulate(cfg, nbytes, LinkParams(4.5e10, 0.0), COMP))
    assert with_lat >= 0.0 and without >= 0.0
    assert without <= with_lat


def test_simulate_validates_inputs():
    cfg = small_cfg()
    with pytest.raises(DivisibilityError):
        simulate(cfg, 12345, LINK, COMP)  # odd byte count has no bf16 layout
    with pytest.raises(DivisibilityError):
        simulate(cfg, 2 * 1024 * 3, LINK, COMP)  # 3 chunks do not split 4 ways
    with pytest.raises(ValueError):
        ComputeParams(0.0, 1e12, 1e12, 1e12, 1e12)
    with pytest.raises(ValueError):
        LinkParams(0.0)

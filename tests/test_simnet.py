"""Event-driven performance model: schedule structure, determinism, bounds."""

import csv
import dataclasses
import io
import json
import math
import operator
import os
import re
import subprocess
import sys
from dataclasses import replace
from itertools import pairwise, product, repeat
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qarsim.simnet as simnet
from qarsim.collectives import CollectiveConfig, Variant
from qarsim.layout import DivisibilityError, PartitionSpec
from qarsim.presets import load_preset
from qarsim.simnet import (
    RES_LINK_CCW,
    RES_LINK_CW,
    RES_VPU,
    ComputeParams,
    LinkParams,
    Timeline,
    TimelineEvent,
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


def _assert_no_overlap(tl):
    streams = {}
    for e in tl.events:
        streams.setdefault((e.device, e.resource), []).append(e)
    for evs in streams.values():
        evs.sort(key=lambda e: (e.start_s, e.end_s))
        for prev, cur in zip(evs, evs[1:]):
            assert cur.start_s >= prev.end_s - 1e-15


@pytest.mark.parametrize("variant", [Variant.FULL_LOOP, Variant.SEMI_LOOP])
@pytest.mark.parametrize("quant", [False, True])
def test_no_resource_overlap(variant, quant):
    cfg = small_cfg(variant=variant, rs=quant, ag=quant)
    _assert_no_overlap(simulate(cfg, small_bytes(cfg), LINK, COMP))


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


_RATES = ("dequant_rate", "add_rate", "scan_rate", "encode_rate", "cast_rate")
_RINGS = [f"{v.value}-{rs}-{ag}" for v in Variant
          for rs in ("raw", "quant") for ag in ("raw", "quant")] + ["naive", "ideal"]


@st.composite
def sim_setups(draw, latency=True, rings=_RINGS):
    """(ring, spec, chunks per microshard, link, compute): a ring from `rings`
    (by default either variant with any stage pair, or the naive or ideal
    ring); N <= 8, m and u <= 4; rates
    and bandwidth from 1e9 to 1e12; `fuse_recv_pass` on or off."""
    ring = draw(st.sampled_from(rings))
    semi = ring.startswith(Variant.SEMI_LOOP.value)
    n = draw(st.sampled_from([2, 4, 6, 8] if semi else range(2, 9)))
    spec = PartitionSpec(n, draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    rate = st.floats(1e9, 1e12)
    link = LinkParams(draw(rate), draw(st.floats(0.0, 1e-4)) if latency else 0.0)
    compute = ComputeParams(*(draw(rate) for _ in _RATES), fuse_recv_pass=draw(st.booleans()))
    return ring, spec, draw(st.integers(1, 3)), link, compute


def _sim(ring, spec, chunks, link, compute):
    nbytes = (2 * spec.num_devices * spec.minishards_per_shard
              * spec.microshards_per_minishard * chunks * 1024)
    if ring == "naive":
        return simulate_naive(spec, nbytes, link, compute)
    if ring == "ideal":
        return simulate_ideal_2to1(spec, nbytes, link, compute)
    variant, rs, ag = ring.split("-")
    cfg = CollectiveConfig(Variant(variant), spec, quantize_rs=rs == "quant",
                           quantize_ag=ag == "quant")
    return simulate(cfg, nbytes, link, compute)


@settings(max_examples=800, deadline=None)
@given(sim_setups(), st.sampled_from(("bandwidth", "latency", "bytes") + _RATES),
       st.floats(1.1, 4.0))
def test_total_time_is_monotone_in_every_parameter(setup, knob, factor):
    # A static order never inverts: raising bandwidth or one rate, or cutting
    # latency, by `factor` never adds time; more tensor bytes never save any.
    ring, spec, chunks, link, compute = setup
    base = _sim(*setup).total_time
    if knob == "bytes":
        assert _sim(ring, spec, math.ceil(chunks * factor), link, compute).total_time >= base
        return
    if knob == "bandwidth":
        link = replace(link, bandwidth_bytes_per_s=link.bandwidth_bytes_per_s * factor)
    elif knob == "latency":
        link = replace(link, hop_latency_s=link.hop_latency_s / factor)
    else:
        compute = replace(compute, **{knob: getattr(compute, knob) * factor})
    assert _sim(ring, spec, chunks, link, compute).total_time <= base


@settings(max_examples=300, deadline=None)
@given(sim_setups(latency=False))
def test_doubling_bandwidth_and_rates_halves_every_event_time(setup):
    # Halving is exact in binary floating point, and every time is a sum or
    # max of durations.
    ring, spec, chunks, link, compute = setup
    tl = _sim(*setup)
    fast = _sim(ring, spec, chunks,
                replace(link, bandwidth_bytes_per_s=2 * link.bandwidth_bytes_per_s),
                replace(compute, **{r: 2 * getattr(compute, r) for r in _RATES}))
    assert (fast.resource, fast.label) == (tl.resource, tl.label)
    assert fast.start_s == [t / 2 for t in tl.start_s]
    assert fast.end_s == [t / 2 for t in tl.end_s]


@pytest.mark.parametrize("n", [4, 8, 16])
@pytest.mark.parametrize("variant", list(Variant))
def test_raw_rings_meet_their_link_bound_closed_forms(variant, n):
    # With compute free, a raw hop is its bytes at B plus L: the full loop
    # runs 2(N-1) hops of D/2N bytes, the semi loop N hops of D/N bytes.
    link, _ = load_preset("v5e-like")
    b, lat, d = link.bandwidth_bytes_per_s, link.hop_latency_s, 64 * MIB
    tl = simulate(CollectiveConfig(variant, PartitionSpec(n, 1, 1)), d, link,
                  ComputeParams(*[1e18] * len(_RATES)))
    if variant is Variant.FULL_LOOP:
        expected = 2 * (n - 1) * (d / (2 * n * b) + lat)
    else:
        expected = n * (d / (n * b) + lat)
    assert tl.total_time == pytest.approx(expected, rel=1e-6)


@settings(max_examples=400, deadline=None)
@given(sim_setups(rings=["naive", "ideal"]))
def test_8_bit_rings_are_never_faster_than_their_byte_bound(setup):
    # Each direction carries half of every shard at 1 byte per element along
    # a chain of 2(N-1) hops: N-1 to reduce and N-1 to gather, each sent no
    # earlier than the previous one arrived. Compute only adds time.
    ring, spec, chunks, link, compute = setup
    tl = _sim(*setup)
    n = spec.num_devices
    half = spec.minishards_per_shard * spec.microshards_per_minishard * chunks * 1024 // 2
    bound = 2 * (n - 1) * (half / link.bandwidth_bytes_per_s + link.hop_latency_s)
    assert tl.total_time >= bound * (1 - 1e-12)


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


# total_time, stage_end("rs"), stage_end("ag"), len(events), idle_time at pod
# scale: N=64, m=64, u=4, 256 MiB, INT8 on both stages. No digest covers N > 32
# or u > 2.
POD_SCALE = {
    Variant.FULL_LOOP: (0.00426955263999832, 0.0026004137599997972, 0.00426955263999832,
                        7290624, 0.12146003967999555),
    Variant.SEMI_LOOP: (0.0038576572799985703, 0.00216361472000006, 0.0038576572799985703,
                        7282560, 0.0652981043199943),
}


@pytest.mark.parametrize("variant", list(POD_SCALE))
def test_pod_scale_times_are_pinned(variant):
    cfg = CollectiveConfig(variant, PartitionSpec(64, 64, 4), quantize_rs=True, quantize_ag=True)
    tl = simulate(cfg, 256 * MIB, LINK, COMP)
    assert (tl.total_time, tl.stage_end("rs"), tl.stage_end("ag"), len(tl.events),
            idle_time(tl)) == POD_SCALE[variant]


def _ref_idle_time(events) -> float:
    """The per-event form of `idle_time`."""
    windows = {}
    for e in events:
        if e.resource == RES_VPU:
            continue
        w = windows.setdefault((e.device, e.resource), [math.inf, 0.0, 0.0])
        w[0] = min(w[0], e.start_s)
        w[1] = max(w[1], e.end_s)
        w[2] += e.end_s - e.start_s
    return sum(last - first - busy for first, last, busy in windows.values())


def _ref_jsonl(events) -> str:
    return "".join(json.dumps(dataclasses.asdict(e)) + "\n" for e in events)


@st.composite
def small_timelines(draw):
    n = draw(st.sampled_from([2, 4, 6, 8]))
    spec = PartitionSpec(n, draw(st.sampled_from([1, 2, 3])), draw(st.sampled_from([1, 2])))
    compute = replace(COMP, fuse_recv_pass=draw(st.booleans()))
    nbytes = 2 * n * spec.minishards_per_shard * spec.microshards_per_minishard * 1024
    kind = draw(st.sampled_from(["ring", "naive", "ideal"]))
    if kind == "naive":
        return simulate_naive(spec, nbytes, LINK, compute)
    if kind == "ideal":
        return simulate_ideal_2to1(spec, nbytes, LINK, compute)
    cfg = CollectiveConfig(draw(st.sampled_from(list(Variant))), spec,
                           quantize_rs=draw(st.booleans()), quantize_ag=draw(st.booleans()))
    return simulate(cfg, nbytes, LINK, compute)


@settings(max_examples=60, deadline=None)
@given(small_timelines())
def test_column_reads_match_per_event_reference(tl):
    events = list(tl.events)
    assert tl.total_time == max(e.end_s for e in events)
    for prefix in ("rs", "ag"):
        assert tl.stage_end(prefix) == max(
            (e.end_s for e in events if e.label.startswith(prefix)), default=0.0)
    assert idle_time(tl) == _ref_idle_time(events)
    jsonl = tl.to_jsonl()
    assert jsonl == _ref_jsonl(events)
    assert len(tl.events) == len(events) == jsonl.count("\n")
    assert tl.columns == tuple(map(list, zip(*map(dataclasses.astuple, events))))
    assert [tl.events[i] for i in (0, 1, len(events) // 2, -1)] == \
        [events[i] for i in (0, 1, len(events) // 2, -1)]
    assert tl.events[5:400:7] == tuple(events[5:400:7])
    # The stored columns are device 0's events.
    device_0 = [(e.resource, e.start_s, e.end_s, e.label) for e in events if e.device == 0]
    assert list(zip(tl.resource, tl.start_s, tl.end_s, tl.label)) == device_0


def test_reads_and_len_build_no_event(monkeypatch):
    def forbidden(*args):
        raise AssertionError("TimelineEvent built")

    monkeypatch.setattr(simnet, "TimelineEvent", forbidden)
    cfg = small_cfg(variant=Variant.SEMI_LOOP)
    nbytes = small_bytes(cfg)
    for tl in (simulate(cfg, nbytes, LINK, COMP), simulate_naive(cfg.spec, nbytes, LINK, COMP),
               simulate_ideal_2to1(cfg.spec, nbytes, LINK, COMP)):
        assert len(tl.events) > 0 and tl.total_time > 0 and tl.stage_end("ag") > 0
        assert idle_time(tl) >= 0 and tl.to_jsonl()
    with pytest.raises(AssertionError, match="TimelineEvent built"):
        tl.events[0]


def test_events_view_is_a_read_only_sequence():
    cfg = small_cfg(n=2, m=1, u=1)
    tl = simulate(cfg, small_bytes(cfg), LINK, COMP)
    ev = tl.events
    lines = tl.to_jsonl().splitlines()
    assert [json.loads(line) for line in lines] == [dataclasses.asdict(e) for e in ev]
    n = len(ev)
    assert ev[0] == ev[-n] and ev[n - 1] == ev[-1]
    assert dataclasses.asdict(ev[-1]) == json.loads(lines[-1])
    with pytest.raises(IndexError):
        ev[n]
    # Slicing returns a tuple of events.
    assert ev[1:5] == tuple(ev)[1:5] and ev[::-2] == tuple(ev)[::-2]
    assert len(ev[1:5]) == 4 and ev[1:5][-1] == ev[4]
    with pytest.raises(TypeError):
        ev[1:5][0] = ev[0]
    with pytest.raises(TypeError):
        ev[0] = ev[1]
    with pytest.raises(TypeError):
        del ev[0]
    assert not hasattr(ev, "append")
    with pytest.raises(AttributeError):
        tl.events = []
    with pytest.raises(dataclasses.FrozenInstanceError):
        ev[0].start_s = 1.0
    assert len(tl.events) == n and list(tl.events) == list(ev)


def test_timeline_rejects_columns_of_unequal_length():
    with pytest.raises(ValueError, match="differ in length"):
        Timeline(1, [0, 1], [RES_VPU, RES_VPU], [0.0], [1.0], ["a"])


# Not from 0, short of the length 2, decreasing, repeating, empty.
@pytest.mark.parametrize("bounds", [[1, 2], [0, 1], [0, 2, 1, 2], [0, 1, 1, 2], []])
def test_timeline_rejects_bounds_that_do_not_increase_from_0_to_the_length(bounds):
    with pytest.raises(ValueError, match="bounds"):
        Timeline(1, bounds, [RES_VPU] * 2, [0.0, 1.0], [1.0, 2.0], ["a", "b"])


def test_to_jsonl_escapes_like_json_dumps():
    # A NUL stands for the device number while to_jsonl formats; one in a
    # resource or label must come out escaped.
    labels = ['q"uote', "back\\slash", "caf\u00e9", "tab\tnew\nline", "\U0001f600", "n\0l"]
    n = len(labels)
    tl = Timeline(1, [0, n], [RES_VPU, RES_LINK_CW, "r\u00e9s", RES_LINK_CCW, RES_VPU, "\0"],
                  [0.0, 1e-300, 2.5, 1 / 3, 7.0, 8.0], [0.1, 1e300, 3.5, 2 / 3, 7.0, 9.0], labels)
    assert tl.to_jsonl().splitlines() == [json.dumps(dataclasses.asdict(e)) for e in tl.events]
    odd = Timeline(1, [0, 3], [RES_VPU] * 3, [0.0, math.inf, -math.inf],
                   [math.nan, math.inf, 0.0], ["a", "b", "c"])
    assert odd.to_jsonl() == _ref_jsonl(odd.events)
    assert Timeline(1, [0], [], [], [], []).to_jsonl() == ""


def test_to_csv_is_the_csv_writer_rendering_of_the_columns(monkeypatch):
    # Device 0's rows are formatted once and each copy gets its device put
    # ahead; quoting, a NUL, an empty first field and constants must come
    # out as csv.writer writes the n devices' rows.
    args = (3, [0, 2, 3, 6], [RES_VPU, RES_LINK_CW, "\0", "r,s", RES_VPU, ""],
            [0.0, 1e-300, 2.5, 1 / 3, math.inf, 8.0], [0.1, 1e300, 3.5, 2 / 3, math.nan, 9.0],
            ['q"uote', "com,ma", "tab\tnew\nline", "caf\u00e9", "n\0l", ""])
    expected = {}
    for constants in [(), (1760000000.123456,), ("x,y", 7)]:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            zip(*Timeline(*args).columns, *map(repeat, constants)))
        expected[constants] = buf.getvalue()

    def forbidden(*args):
        raise AssertionError("columns built")

    monkeypatch.setattr(Timeline, "columns", property(forbidden))
    for constants, text in expected.items():
        assert Timeline(*args).to_csv(*constants) == text
    assert Timeline(2, [0], [], [], [], []).to_csv() == ""


def _filled_sched(rows) -> simnet._Sched:
    """A one-device scheduler holding the events `rows` of (resource, start_s, end_s, label)."""
    s = simnet._Sched(1, LINK, COMP)
    for row in rows:
        for col, value in zip((s.resource, s.start_s, s.end_s, s.label), row):
            col.append(value)
    return s


@pytest.mark.parametrize("rows, culprit", [
    # Different resources may overlap in time; the first overlap emitted is
    # named, not the first in resource order.
    ([(RES_LINK_CW, 0.0, 2.0, "a"), (RES_VPU, 0.5, 1.0, "b"), (RES_VPU, 0.9, 1.5, "d"),
      (RES_LINK_CCW, 0.5, 3.0, "c"), (RES_LINK_CCW, 1.0, 2.0, "f")], "VPU at d"),
    # The first event on a resource may not start before 0.
    ([(RES_VPU, 0.0, 1.0, "a"), (RES_LINK_CCW, -1e-9, 1.0, "e")], "LINK_CCW at e"),
])
def test_finish_raises_on_overlap(rows, culprit):
    # `_Sched.finish` runs this check on device 0's columns.
    with pytest.raises(RuntimeError, match=f"overlap on {culprit}$"):
        simnet._check_overlap(*zip(*rows))
    with pytest.raises(RuntimeError, match=f"overlap on {culprit}$"):
        _filled_sched(rows).finish()


def test_finish_keeps_the_tolerance():
    tl = _filled_sched([(RES_VPU, -0.5e-12, 1.0, "a"), (RES_VPU, 1.0 - 0.5e-12, 2.0, "b"),
                        (RES_LINK_CW, 0.0, 0.0, "c")]).finish()
    assert list(tl.label) == ["a", "b", "c"]
    with pytest.raises(RuntimeError):
        _filled_sched([(RES_VPU, 0.0, math.nan, "a"), (RES_VPU, 1.0, 2.0, "b")]).finish()


def test_overlap_check_runs_under_optimize():
    code = ("import qarsim.simnet as s\n"
            "x = s._Sched(1, None, None)\n"
            "for c, v in zip((x.resource, x.start_s, x.end_s, x.label),"
            " ('VPU', -1.0, 0.0, 'a')): c.append(v)\n"
            "try:\n    x.finish()\nexcept RuntimeError:\n    raise SystemExit(0)\n"
            "raise SystemExit(1)\n")
    src = str(Path(simnet.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    assert subprocess.run([sys.executable, "-O", "-c", code], env=env).returncode == 0


@settings(max_examples=100, deadline=None)
@given(small_timelines())
def test_every_device_runs_device_0s_events(tl):
    # Rotation symmetry: labels name no device or shard, so device d's events
    # are device 0's events exactly, times included.
    per_device: dict[int, list] = {}
    for d, *event in zip(*tl.columns):
        per_device.setdefault(d, []).append(tuple(event))
    assert sorted(per_device) == list(range(len(per_device)))
    for d, events in per_device.items():
        assert events == per_device[0], f"device {d}"


# Receive-side passes of hop `it` in a direction; the transfers of hop `it`;
# and the reduce-scatter passes whose results a later hop sends.
_RECV = re.compile(r"(rs|ag):(?:dq|add|fused|land|dec):it=(\d+):(cw|ccw)(:g=\d+:j=\d+)?$")
_SEND = re.compile(r"(rs|ag):(pay|raw|meta):it=(\d+):(cw|ccw)(:g=\d+:j=\d+)?$")
_MADE = re.compile(r"rs:(enc|scan|fused|add|recode):it=(\d+):(cw|ccw)(:g=\d+:j=\d+)?$")
_KINDS = [f"{v.value}-{rs}-{ag}" for v in Variant for rs in ("raw", "quant")
          for ag in ("raw", "quant")] + ["naive", "ideal"]


def _timelines(kind: str, n: int):
    spec = PartitionSpec(n, 3, 2)
    # Microshards of 1 Ki and 128 Ki elements. At 1 Ki the metadata transfer
    # ahead of a quantized payload on its link always ends after the
    # payload's own encode or arrival; only larger microshards show that a
    # payload waits for those.
    for nbytes, fuse in product((2 * n * 3 * 2 * 1024 * k for k in (1, 128)), (False, True)):
        compute = replace(COMP, fuse_recv_pass=fuse)
        if kind == "naive":
            yield simulate_naive(spec, nbytes, LINK, compute)
        elif kind == "ideal":
            yield simulate_ideal_2to1(spec, nbytes, LINK, compute)
        else:
            variant, rs, ag = kind.split("-")
            cfg = CollectiveConfig(Variant(variant), spec, quantize_rs=rs == "quant",
                                   quantize_ag=ag == "quant")
            yield simulate(cfg, nbytes, LINK, compute)


def _made(pass_: str, it: str, dn: str, part: str | None):
    """(payload or metadata, iteration, direction, part) of the reduce-scatter
    send whose data a pass of iteration `it` on the same device makes, or None.

    A payload microshard is made by its encode for that iteration, the
    metadata by every scan (or fused pass) of the iteration before, and a
    raw or 8-bit partial by the add or recode of the iteration before.
    """
    if pass_ == "enc":
        return "data", int(it), dn, part
    if part is None:
        return "data", int(it) + 1, dn, None
    return ("meta", int(it) + 1, dn, None) if pass_ in ("scan", "fused") else None


@pytest.mark.parametrize("kind", _KINDS)
@pytest.mark.parametrize("n", [4, 6, 16])
def test_derived_devices_wait_for_their_neighbours_sends(n, kind):
    # Read off the full timeline alone, not the simulator's ready times. On
    # every device d, each receive pass starts no earlier than the sending
    # neighbour's matching transfer ends plus the hop latency; each
    # all-gather forward, no earlier than what it forwards arrived; and
    # each later reduce-scatter send, no earlier than the passes that made
    # its data end.
    lat = LINK.hop_latency_s
    for tl in _timelines(kind, n):
        sends, sent, made = [], {}, {}
        for d, _, start, end, label in zip(*tl.columns):
            if m := _SEND.match(label):
                stage, what, it, dn, part = m.groups()
                key = (stage, "meta" if what == "meta" else "data", int(it), dn, part)
                sends.append((d, start, key))
                sent[(d, *key)] = end
            elif (m := _MADE.match(label)) and (key := _made(*m.groups())):
                made[(d, *key)] = max(made.get((d, *key), 0.0), end)
        upstream = {"cw": -1, "ccw": 1}
        checked = 0
        for d, _, start, _, label in zip(*tl.columns):
            m = _RECV.match(label)
            if m:
                stage, it, dn, part = m.groups()
                sender = (d + upstream[dn]) % n
                assert start >= sent[(sender, stage, "data", int(it), dn, part)] + lat, \
                    (d, label)
                checked += 1
        assert checked >= n
        later = {"rs": 0, "ag": 0}
        for d, start, (stage, what, it, dn, part) in sends:
            if it == 1:
                continue
            if stage == "ag":
                ready = sent[((d + upstream[dn]) % n, stage, what, it - 1, dn, part)] + lat
            else:
                ready = made[(d, what, it, dn, part)]
            assert start >= ready, (d, stage, what, it, dn, part)
            later[stage] += 1
        assert min(later.values()) >= n
        _assert_no_overlap(tl)


def _derived():
    cfg = small_cfg(n=6, m=3, variant=Variant.SEMI_LOOP)
    return simulate(cfg, small_bytes(cfg), LINK, COMP)


def test_total_time_stage_end_and_len_leave_the_columns_unbuilt(monkeypatch):
    full = _derived()
    events = list(full.events)
    expected = (max(e.end_s for e in events),
                max(e.end_s for e in events if e.label.startswith("rs")),
                max(e.end_s for e in events if e.label.startswith("ag")),
                len(events), _ref_idle_time(events), _ref_jsonl(events))

    def forbidden(*args):
        raise AssertionError("columns built")

    expand, expanded = simnet._expand, []

    def recorded(n, bounds, cols):
        expanded.append(len(cols))
        return expand(n, bounds, cols)

    monkeypatch.setattr(Timeline, "columns", property(forbidden))
    monkeypatch.setattr(simnet, "_expand", recorded)
    tl = _derived()
    reads = (tl.total_time, tl.stage_end("rs"), tl.stage_end("ag"), len(tl.events), idle_time(tl))
    assert not expanded
    assert reads + (tl.to_jsonl(),) == expected
    assert expanded == [1]  # to_jsonl expands its formatted lines alone
    with pytest.raises(AssertionError, match="columns built"):
        tl.columns


def _expanded_events(tl):
    """The n devices' events, one at a time from device 0's columns: each
    segment once per device, device 0 first."""
    return [TimelineEvent(d, tl.resource[i], tl.start_s[i], tl.end_s[i], tl.label[i])
            for a, b in pairwise(tl.bounds) for d in range(tl.n) for i in range(a, b)]


# Each read of a timeline, and the same read of its expanded events.
_READS = {
    **{name: (operator.attrgetter(name),
              lambda events, name=name: [getattr(e, name) for e in events if e.device == 0])
       for name in ("resource", "start_s", "end_s", "label")},
    "columns": (operator.attrgetter("columns"),
                lambda events: tuple(map(list, zip(*map(dataclasses.astuple, events))))),
    "to_jsonl": (Timeline.to_jsonl, _ref_jsonl),
    "idle_time": (idle_time, _ref_idle_time),
    "events[i]": (lambda tl: [tl.events[i] for i in (0, 1, len(tl.events) // 2, -1)],
                  lambda events: [events[i] for i in (0, 1, len(events) // 2, -1)]),
    "events[a:b:c]": (lambda tl: list(tl.events[5:400:7]), lambda events: events[5:400:7]),
}


@pytest.mark.parametrize("read", list(_READS))
def test_derived_reads_match_a_timeline_of_the_expanded_columns(read):
    derived, expanded = _READS[read]
    # A fresh timeline, so `read` is the first thing read from it.
    assert derived(_derived()) == expanded(_expanded_events(_derived()))

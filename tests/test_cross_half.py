"""The two halves agree on what device 0 sends and computes, hop by hop.

The functional ring is observed, not restated: one `_reduce_scatter` run
goes through a hop kind wrapped so that each `send`, `hop` and `merge`
call is logged with the message it puts on the wire and the per-element
passes run inside it (the quantize, dequantize and cast kernels are
counted where `collectives` calls them, and each hop or merge folds one
operand in: one add per element). Calls are attributed to devices in
`schedule.rs_arcs` walk order: per shard, per arc, per tile, the head
sends hop 1, device k of the arc sends hop k+1, and the owner merges.
The all-gather's quantized messages are counted while one `gather_blocks`
run is taken, and forwarded along each `schedule.ag_arcs` arc.

Device 0's bytes per (stage, direction, hop) must equal its link events in
the simulator (duration x bandwidth), and its elements per (stage, pass)
its VPU events (duration x rate). A message is `QuantizedShard.wire_bytes`,
2 B per BF16 element or 1 B per naive-ring code. Sums of durations lose
bits (8191.999999999998 B against 8192 at 1 B/s), hence the 1e-9 relative
tolerance.
"""

from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest
from test_schedule_goldens import COMPUTE, LINK, ODD_SIM_SPECS, SIM_SPECS

import qarsim.collectives as collectives
from qarsim.analysis import device_inputs
from qarsim.collectives import CollectiveConfig, Variant
from qarsim.layout import CHUNK_ELEMS, PartitionSpec
from qarsim.numerics import Codec, decode, encode
from qarsim.quant import QuantizedShard, dequantize_shard, quantize_shard
from qarsim.schedule import ag_arcs, rs_arcs
from qarsim.simnet import RES_LINK_CCW, RES_LINK_CW, RES_VPU, simulate

CONFIGS = [(v, spec) for spec in SIM_SPECS for v in Variant] + [
    (Variant.FULL_LOOP, spec) for spec in ODD_SIM_SPECS]
LINK_OF = {"cw": RES_LINK_CW, "ccw": RES_LINK_CCW}
# The simulator's VPU event kinds, by the pass they charge and its rate.
SIM_PASS = {"dq": "dq", "add": "add", "scan": "scan", "enc": "enc",
            "cast": "cast", "recode": "cast", "dec": "cast"}
RATE = {"dq": "dequant_rate", "add": "add_rate", "scan": "scan_rate", "enc": "encode_rate",
        "cast": "cast_rate"}


def _id(case):
    variant, (n, m, u) = case
    return f"{variant.value}-n{n}m{m}u{u}"


def _tensor(n, m, u):
    """(rows, cols) of the simulator goldens' tensors: two chunks per microshard."""
    return 2 * n * m * u * CHUNK_ELEMS // 128, 128


@dataclass
class _Call:
    name: str
    elems: int
    wire_bytes: int
    passes: Counter


def _message_bytes(wire) -> int:
    if isinstance(wire, QuantizedShard):
        return wire.wire_bytes
    return wire.size * (1 if wire.dtype == np.uint8 else 2)  # naive codes, BF16 partials


class _Recorder:
    """A hop kind that logs each call with its message bytes and its passes."""

    def __init__(self, kind, passes: Counter):
        self.kind, self.per_minishard = kind, kind.per_minishard
        self.passes, self.calls = passes, []

    def _log(self, name, elems, out):
        # A hop or merge folds one operand in: one add per element.
        passes = Counter(self.passes, add=0 if name == "send" else elems)
        self.passes.clear()
        wire_bytes = 0 if name == "merge" else _message_bytes(out)
        self.calls.append(_Call(name, elems, wire_bytes, +passes))
        return out

    def send(self, local):
        return self._log("send", local.size, self.kind.send(local))

    def hop(self, wire, local):
        return self._log("hop", local.size, self.kind.hop(wire, local))

    def merge(self, acc, wire):
        return self._log("merge", acc.size, self.kind.merge(acc, wire))


def _count_kernels(monkeypatch, passes: Counter, messages: list) -> None:
    """Count each kernel `collectives` calls, in elements per pass; log each
    quantized message as (elements, wire bytes)."""

    def quantize(blocks, codec):
        passes["scan"] += blocks.size
        passes["enc"] += blocks.size
        q = quantize_shard(blocks, codec)
        messages.append((blocks.size, q.wire_bytes))
        return q

    def dequantize(q):
        passes["dq"] += q.payload.size
        return dequantize_shard(q)

    def cast_encode(values, codec):
        passes["cast"] += values.size
        return encode(values, codec)

    def cast_decode(codes, codec):
        passes["cast"] += codes.size
        return decode(codes, codec)

    for name, fn in (("quantize_shard", quantize), ("dequantize_shard", dequantize),
                     ("encode", cast_encode), ("decode", cast_decode)):
        monkeypatch.setattr(collectives, name, fn)


def _attribute(calls, variant, n, units, unit):
    """(device, direction, hop t, call) for each call, in `rs_arcs` walk order."""
    it = iter(calls)
    for arcs in rs_arcs(variant, n, units):
        for arc in arcs:
            left = len(arc.units) * unit
            while left > 0:
                tile = [next(it) for _ in arc.devices]
                hops = len(arc.devices) - 1
                assert [c.name for c in tile] == ["send"] + ["hop"] * (hops - 1) + ["merge"]
                left -= tile[0].elems
                for t, (dev, call) in enumerate(zip(arc.devices, tile), start=1):
                    yield dev, arc.direction, t, call
            assert left == 0
    assert next(it, None) is None


def _functional(variant, nmu, kind, monkeypatch):
    """Device 0's bytes per (stage, direction, hop t) and elements per (stage, pass)."""
    n, m, u = nmu
    rows, cols = _tensor(n, m, u)
    inputs = device_inputs(rows, cols, n, seed=n + m + u)
    shard = inputs[0].bits.size // n
    passes, messages = Counter(), []
    _count_kernels(monkeypatch, passes, messages)
    hop = {"quant": lambda: collectives._QuantHop(Codec.INT8),
           "raw": collectives._Bf16Hop,
           "naive": lambda: collectives._CastHop(Codec.F8E5M2)}[kind]()
    recorder = _Recorder(hop, passes)
    spec = PartitionSpec(n, m, u)
    reduced = collectives._reduce_scatter(inputs, spec, variant, recorder)
    units, unit = (m, shard // m) if kind == "quant" else (shard, 1)

    wire, work = Counter(), Counter()
    for dev, dn, t, call in _attribute(recorder.calls, variant, n, units, unit):
        if dev == 0:
            wire["rs", dn, t] += call.wire_bytes
            work.update({("rs", p): k for p, k in call.passes.items()})
    wire = +wire  # the owner's merge puts nothing on the wire

    if kind == "quant":
        # Every device, the source included, decodes each message; device 0
        # encodes the m messages of shard 0, its own.
        passes.clear()
        messages.clear()
        for _ in collectives.gather_blocks(reduced, CollectiveConfig(
                variant, spec, quantize_ag=True, codec=Codec.INT8)):
            pass
        assert len(messages) == n * m
        work["ag", "dq"] += passes["dq"]
        work["ag", "scan"] = work["ag", "enc"] = sum(e for e, _ in messages[:m])
        ag_units, ag_bytes = m, [b for _, b in messages]
    else:
        # Forwarded as reduced, raw BF16 or the naive ring's decoded codes.
        ag_units, ag_bytes = shard, [2 if kind == "raw" else 1] * (n * shard)
    for s, arcs in enumerate(ag_arcs(variant, n, ag_units)):
        for arc in arcs:
            for t, dev in enumerate(arc.devices[:-1], start=1):
                if dev == 0:
                    wire["ag", arc.direction, t] += sum(ag_bytes[s * ag_units + g]
                                                        for g in arc.units)
    return wire, +work


def _simulated(tl, compute):
    """Device 0's link bytes per (stage, direction, hop t) and VPU elements per (stage, pass)."""
    wire, work = Counter(), Counter()
    for res, start, end, label in zip(tl.resource, tl.start_s, tl.end_s, tl.label):
        stage, word, *rest = label.split(":")
        if res != RES_VPU:
            it, dn = rest[:2]
            assert res == LINK_OF[dn]
            wire[stage, dn, int(it.removeprefix("it="))] += (end - start) * LINK.bandwidth_bytes_per_s
        elif word != "land":  # the raw all-gather's zero-length landing marker
            p = SIM_PASS[word]
            work[stage, p] += (end - start) * getattr(compute, RATE[p])
    return wire, work


def _assert_same(functional: Counter, simulated: Counter):
    assert set(functional) == set(simulated)
    for key, value in functional.items():
        assert simulated[key] == pytest.approx(value, rel=1e-9, abs=0), key


def _run(variant, nmu, kind, monkeypatch):
    spec = PartitionSpec(*nmu)
    rows, cols = _tensor(*nmu)
    nbytes = 2 * rows * cols
    q, cast = kind == "quant", kind == "naive"
    tl = simulate(CollectiveConfig(variant, spec, quantize_rs=q, quantize_ag=q, cast=cast),
                  nbytes, LINK, COMPUTE)
    return _functional(variant, nmu, kind, monkeypatch), _simulated(tl, COMPUTE)


@pytest.mark.parametrize("kind", ["raw", "quant"])
@pytest.mark.parametrize("case", CONFIGS, ids=_id)
def test_device_0_wire_bytes_match_link_events(case, kind, monkeypatch):
    (wire, _), (sim_wire, _) = _run(*case, kind, monkeypatch)
    _assert_same(wire, sim_wire)


@pytest.mark.parametrize("case", [c for c in CONFIGS if c[0] is Variant.FULL_LOOP], ids=_id)
def test_naive_ring_wire_bytes_match_link_events(case, monkeypatch):
    (wire, _), (sim_wire, _) = _run(*case, "naive", monkeypatch)
    _assert_same(wire, sim_wire)


@pytest.mark.parametrize("kind", ["raw", "quant"])
@pytest.mark.parametrize("case", CONFIGS, ids=_id)
def test_device_0_passes_match_vpu_events(case, kind, monkeypatch):
    assert not COMPUTE.fuse_recv_pass  # one VPU event per pass
    (_, work), (_, sim_work) = _run(*case, kind, monkeypatch)
    _assert_same(work, sim_work)


@pytest.mark.xfail(strict=True, reason=(
    "FOUND in CHANGES.md: the functional naive ring runs N+1 cast passes per shard "
    "element, all in the reduce-scatter (the head's encode, one encode of the local "
    "value per middle hop with the recode a table lookup, and the owner's encode and "
    "decode), where simnet charges N there and N more in the all-gather"))
@pytest.mark.parametrize("nmu", [(4, 2, 2), (7, 1, 1)])
def test_naive_ring_passes_match_vpu_events(nmu, monkeypatch):
    (_, work), (_, sim_work) = _run(Variant.FULL_LOOP, nmu, "naive", monkeypatch)
    _assert_same(work, sim_work)

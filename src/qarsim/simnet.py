"""Deterministic cost-model simulator for the ring collectives.

Each device owns three serial resources: its clockwise link, its
counter-clockwise link, and a vector unit (VPU) that executes dequantize /
add / abs-max scan / scale-encode passes at configured element rates. The
schedule is a static task DAG walked in one canonical order: a task starts
at max(resource free time, dependency completion times); a transfer of b
bytes occupies the sender's link for b / bandwidth seconds and becomes
visible to the receiver one hop latency later. Identical inputs therefore
produce bit-identical timelines, and total time is non-increasing in
bandwidth and in every compute rate (a fixed order can never invert).

The hop structure comes from `schedule`, which defines the arcs and the
per-iteration hop lists; one executor walks those lists and emits each
hop's events through its hop kind: quantized, raw BF16, or the 8-bit
casts of the naive and ideal 2:1 rings.

Dependency rules mirror the functional collectives: a microshard's
dequantize waits for its payload bytes and for its minishard's metadata;
add follows dequantize; the scale-encode of any microshard in a minishard
waits for the abs-max scans of all u microshards of that minishard; each
iteration's metadata is enqueued on the link before its payloads; the next
iteration's send waits for the receive pass that produced its data.
Send-side encode of one microshard overlaps the link transfer of the
previous one (software pipelining), and raw (unquantized) hops carry
BF16 shards with no compute except the add.

Tensor sizes are given in bytes of the BF16 tensor, so element count is
bytes / 2; quantized payloads put 1 byte per element on the wire plus
4 KiB of float32 scales per minishard grid per hop.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import groupby, zip_longest

from .collectives import CollectiveConfig
from .layout import DivisibilityError, PartitionSpec
from .quant import GRID_BYTES
from .schedule import Hop, Schedule, Variant, ag_schedule, rs_schedule

RES_LINK_CW = "LINK_CW"
RES_LINK_CCW = "LINK_CCW"
RES_VPU = "VPU"

_LINK_OF = {"cw": RES_LINK_CW, "ccw": RES_LINK_CCW}


@dataclass(frozen=True)
class LinkParams:
    bandwidth_bytes_per_s: float
    hop_latency_s: float = 0.0

    def __post_init__(self):
        if self.bandwidth_bytes_per_s <= 0:
            raise ValueError("bandwidth must be > 0")
        if self.hop_latency_s < 0:
            raise ValueError("hop latency must be >= 0")


@dataclass(frozen=True)
class ComputeParams:
    dequant_rate: float
    add_rate: float
    scan_rate: float
    encode_rate: float
    cast_rate: float
    fuse_recv_pass: bool = False

    def __post_init__(self):
        for name in ("dequant_rate", "add_rate", "scan_rate", "encode_rate", "cast_rate"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")


@dataclass(frozen=True)
class TimelineEvent:
    device: int
    resource: str
    start_s: float
    end_s: float
    label: str


@dataclass
class Timeline:
    events: list[TimelineEvent] = field(default_factory=list)

    @property
    def total_time(self) -> float:
        return max((e.end_s for e in self.events), default=0.0)

    def stage_end(self, prefix: str) -> float:
        """Latest end among events whose label starts with prefix (e.g. 'rs', 'ag')."""
        return max((e.end_s for e in self.events if e.label.startswith(prefix)), default=0.0)

    def to_jsonl(self) -> str:
        lines = [
            json.dumps(
                {
                    "device": e.device,
                    "resource": e.resource,
                    "start_s": e.start_s,
                    "end_s": e.end_s,
                    "label": e.label,
                }
            )
            for e in self.events
        ]
        return "\n".join(lines) + "\n" if lines else ""


def idle_time(t: Timeline) -> float:
    """Sum over links of idle gaps between each link's first and last transfer."""
    windows: dict[tuple[int, str], list[float]] = {}
    for e in t.events:
        if e.resource == RES_VPU:
            continue
        w = windows.setdefault((e.device, e.resource), [math.inf, 0.0, 0.0])
        w[0] = min(w[0], e.start_s)
        w[1] = max(w[1], e.end_s)
        w[2] += e.end_s - e.start_s
    return sum(last - first - busy for first, last, busy in windows.values())


def lower_bound(variant: Variant, num_devices: int, d_bytes: float, bandwidth: float) -> float:
    """Bandwidth lower bound on reduce-scatter time for d_bytes moved at bandwidth B."""
    if num_devices < 2:
        raise ValueError("need at least 2 devices")
    if variant is Variant.SEMI_LOOP:
        return d_bytes / (2.0 * bandwidth)
    return (num_devices - 1) * d_bytes / (2.0 * num_devices * bandwidth)


class _Sched:
    """Static-order list scheduler over per-device link and VPU resources."""

    def __init__(self, link: LinkParams, compute: ComputeParams):
        self.link = link
        self.compute = compute
        self.free: dict[tuple[int, str], float] = {}
        self.done: dict[tuple, float] = {}
        self.events: list[TimelineEvent] = []

    def _run(self, device: int, resource: str, label: str, dur: float, deps) -> float:
        t0 = self.free.get((device, resource), 0.0)
        for d in deps:
            dt = self.done[d]
            if dt > t0:
                t0 = dt
        t1 = t0 + dur
        self.free[(device, resource)] = t1
        self.events.append(TimelineEvent(device, resource, t0, t1, label))
        return t1

    def vpu(self, device: int, keys, label: str, nelems: float, rate: float, deps=()):
        t1 = self._run(device, RES_VPU, label, nelems / rate, deps)
        for k in keys:
            self.done[k] = t1

    def send(self, device: int, direction: str, key, label: str, nbytes: float, deps=()):
        t1 = self._run(device, _LINK_OF[direction], label, nbytes / self.link.bandwidth_bytes_per_s, deps)
        # Receiver-side visibility: one hop latency after the wire drains.
        self.done[key] = t1 + self.link.hop_latency_s

    def join(self, key, deps):
        self.done[key] = max((self.done[d] for d in deps), default=0.0)

    def finish(self) -> Timeline:
        # Per-resource construction order is execution order; verify no overlap.
        prev: dict[tuple[int, str], float] = {}
        for e in self.events:
            k = (e.device, e.resource)
            assert e.start_s >= prev.get(k, 0.0) - 1e-12, f"overlap on {k} at {e.label}"
            prev[k] = e.end_s
        return Timeline(self.events)


def _interleave(*seqs):
    out = []
    for row in zip_longest(*seqs):
        out.extend(x for x in row if x is not None)
    return out


def _recv_micro(s: _Sched, dev: int, tag: str, e: float, arrive, add_key, scan_key):
    """Dq + Add (+ abs-max scan) of one arriving microshard on the device VPU.

    With fuse_recv_pass the phases collapse into one pass gated by the
    slowest participating rate.
    """
    c = s.compute
    if c.fuse_recv_pass:
        rates = [c.dequant_rate, c.add_rate] + ([c.scan_rate] if scan_key else [])
        keys = [add_key] + ([scan_key] if scan_key else [])
        s.vpu(dev, keys, f"rs:fused{tag}", e, min(rates), arrive)
        return
    dq_key = ("dq",) + add_key
    s.vpu(dev, [dq_key], f"rs:dq{tag}", e, c.dequant_rate, arrive)
    s.vpu(dev, [add_key], f"rs:add{tag}", e, c.add_rate, [dq_key])
    if scan_key:
        s.vpu(dev, [scan_key], f"rs:scan{tag}", e, c.scan_rate, [add_key])


def _prep_quant(s, dev, tag, gs, u, e_micro, keys, stage, deps=()):
    """Send-side phase-1 scans (all microshards) then phase-2 encodes.

    The joined scans and the encodes are stored under every key prefix in
    keys: a semi-loop all-gather source encodes once for both directions.
    """
    c = s.compute
    scan = keys[0] + ("scan",)
    for g in gs:
        for j in range(u):
            s.vpu(dev, [scan + (g, j)], f"{stage}:scan:prep:{tag}:g={g}:j={j}", e_micro,
                  c.scan_rate, deps)
    for g in gs:
        for k in keys:
            s.join(k + ("scanj", g), [scan + (g, j) for j in range(u)])
        for j in range(u):
            s.vpu(dev, [k + ("enc", g, j) for k in keys], f"{stage}:enc:prep:{tag}:g={g}:j={j}",
                  e_micro, c.encode_rate, [keys[0] + ("scanj", g)])


def _key(stage: str, h: Hop, t: int) -> tuple:
    """Key prefix of what hop t of h's arc carries."""
    return (stage, h.arc.shard, h.arc.direction, t)


class _Hops:
    """How one stage's hops turn into events; `_execute` walks the hop lists."""

    def __init__(self, s: _Sched, stage: str):
        self.s = s
        self.stage = stage

    def _join_merges(self, sch: Schedule, arc_keys) -> None:
        # The all-gather of shard d starts once every partial merged at its owner.
        merges: dict[int, list] = {}
        for h in sch.heads:
            merges.setdefault(h.arc.shard, []).extend(arc_keys(h.arc))
        for shard, keys in merges.items():
            self.s.join(("rs_done", shard), keys)


class _Quant(_Hops):
    """Block-quantized hops: one metadata transfer (a scale grid per minishard),
    then the payload microshards.

    Reduce-scatter receivers dequantize, add, scan and re-encode for the next
    hop; all-gather receivers dequantize.
    """

    def __init__(self, s: _Sched, stage: str, e_micro: int, u: int):
        super().__init__(s, stage)
        self.e, self.u = e_micro, u

    def prep(self, sch: Schedule) -> None:
        s, e, u = self.s, self.e, self.u
        if self.stage == "rs":
            for h in sch.heads:
                _prep_quant(s, h.sender, h.arc.direction, h.arc.units, u, e,
                            [_key("rs", h, 1)], "rs")
            return
        # Sources encode their reduced shard (once for both directions when
        # the arcs carry it whole) and decode their own codes too, so outputs
        # match everywhere.
        for d, hs in groupby(sch.heads, key=lambda h: h.sender):
            hs = list(hs)
            parts = [("", hs)] if sch.whole else [(h.arc.direction, [h]) for h in hs]
            for dn, ph in parts:
                _prep_quant(s, d, dn or "own", ph[0].arc.units, u, e,
                            [_key("ag", h, 1) for h in ph], "ag", deps=[("rs_done", d)])
            for dn, ph in parts:
                enc = _key("ag", ph[0], 1) + ("enc",)
                tag = f":{dn}" if dn else ""
                for g in ph[0].arc.units:
                    for j in range(u):
                        s.vpu(d, [], f"ag:dq:own{tag}:g={g}:j={j}", e, s.compute.dequant_rate,
                              [enc + (g, j)])

    def send(self, h: Hop) -> None:
        s, st, e, u, t = self.s, self.stage, self.e, self.u, h.it
        dn, gs = h.arc.direction, h.arc.units
        k = _key(st, h, t)
        if st == "ag" and t > 1:
            # Forward the codes and grids that arrived on the previous hop.
            src = _key(st, h, t - 1)
            meta_deps = [src + ("meta",)]
            pay = src + ("pay",)
        else:
            meta_deps = [k + ("scanj", g) for g in gs]
            pay = k + ("enc",)
        s.send(h.sender, dn, k + ("meta",), f"{st}:meta:it={t}:{dn}", len(gs) * GRID_BYTES,
               meta_deps)
        for g in gs:
            for j in range(u):
                s.send(h.sender, dn, k + ("pay", g, j), f"{st}:pay:it={t}:{dn}:g={g}:j={j}", e,
                       [pay + (g, j)])

    def recv(self, group: tuple[Hop, ...]) -> None:
        s, st, e, u = self.s, self.stage, self.e, self.u
        c = s.compute
        for h, g in _interleave(*[[(h, g) for g in h.arc.units] for h in group]):
            a, d, t = h.arc, h.receiver, h.it
            dn = a.direction
            k = _key(st, h, t)
            if st == "ag":
                for j in range(u):
                    s.vpu(d, [], f"ag:dq:it={t}:{dn}:g={g}:j={j}", e, c.dequant_rate,
                          [k + ("pay", g, j), k + ("meta",)])
                continue
            nxt = _key(st, h, t + 1)
            for j in range(u):
                tag = f":it={t}:{dn}:g={g}:j={j}"
                arrive = [k + ("pay", g, j), k + ("meta",)]
                if h.last:
                    if a.after:
                        # Fold into the accumulator the earlier arc's merge made.
                        arrive.append(("merge", a.shard, a.after, g, j))
                    _recv_micro(s, d, tag, e, arrive, ("merge", a.shard, dn, g, j), None)
                else:
                    _recv_micro(s, d, tag, e, arrive, nxt + ("add", g, j), nxt + ("scan", g, j))
            if not h.last:
                s.join(nxt + ("scanj", g), [nxt + ("scan", g, j) for j in range(u)])
                for j in range(u):
                    s.vpu(d, [nxt + ("enc", g, j)], f"rs:enc:it={t + 1}:{dn}:g={g}:j={j}", e,
                          c.encode_rate, [nxt + ("scanj", g)])

    def done(self, sch: Schedule) -> None:
        if self.stage == "rs":
            u = self.u
            self._join_merges(sch, lambda a: [("merge", a.shard, a.direction, g, j)
                                              for g in a.units for j in range(u)])


class _Plain(_Hops):
    """Unquantized hops, elem_bytes per element on the wire.

    BF16 partials (raw hops, 2 bytes), or 8-bit codes (the naive and ideal
    2:1 rings, 1 byte), where `cast` adds the naive ring's cast, recode and
    decode passes.
    """

    def __init__(self, s: _Sched, stage: str, word: str, elem_bytes: int, cast: bool = False,
                 per_direction: bool = False):
        super().__init__(s, stage)
        self.word, self.elem_bytes, self.cast = word, elem_bytes, cast
        # The 8-bit rings gather each direction's half as soon as it is reduced.
        self.per_direction = per_direction

    def prep(self, sch: Schedule) -> None:
        if self.stage == "rs" and self.cast:
            for h in sch.heads:
                self.s.vpu(h.sender, [_key("rs", h, 1) + ("red",)],
                           f"rs:cast:prep:{h.arc.direction}", len(h.arc.units),
                           self.s.compute.cast_rate)

    def send(self, h: Hop) -> None:
        st, t, dn = self.stage, h.it, h.arc.direction
        k = _key(st, h, t)
        if st == "rs":
            deps = [k + ("red",)] if t > 1 or self.cast else []
        elif t > 1:
            deps = [_key(st, h, t - 1) + ("wire",)]
        else:
            deps = [("merge", h.sender, dn) if self.per_direction else ("rs_done", h.sender)]
        self.s.send(h.sender, dn, k + ("wire",), f"{st}:{self.word}:it={t}:{dn}",
                    self.elem_bytes * len(h.arc.units), deps)

    def recv(self, group: tuple[Hop, ...]) -> None:
        s, st = self.s, self.stage
        c = s.compute
        for h in group:
            a, d, t = h.arc, h.receiver, h.it
            dn, elems = a.direction, len(a.units)
            k = _key(st, h, t)
            arrive = [k + ("wire",)]
            if st == "ag":
                if self.cast:
                    s.vpu(d, [], f"ag:dec:it={t}:{dn}", elems, c.cast_rate, arrive)
                else:
                    # Zero-cost landing marker: completion includes the final hop latency.
                    s.vpu(d, [], f"ag:land:it={t}:{dn}", 0.0, 1.0, arrive)
                continue
            if h.last:
                out = ("merge", a.shard, dn)
                if a.after:
                    arrive.append(("merge", a.shard, a.after))
            else:
                out = _key(st, h, t + 1) + ("red",)
            if self.cast:
                s.vpu(d, [k + ("sum",)], f"rs:add:it={t}:{dn}", elems, c.add_rate, arrive)
                s.vpu(d, [out], f"rs:recode:it={t}:{dn}", elems, c.cast_rate, [k + ("sum",)])
            else:
                s.vpu(d, [out], f"rs:add:it={t}:{dn}", elems, c.add_rate, arrive)

    def done(self, sch: Schedule) -> None:
        if self.stage == "rs":
            self._join_merges(sch, lambda a: [("merge", a.shard, a.direction)])
        elif self.cast:
            for h in sch.heads:
                self.s.vpu(h.sender, [], f"ag:dec:own:{h.arc.direction}", len(h.arc.units),
                           self.s.compute.cast_rate, [("merge", h.sender, h.arc.direction)])


def _execute(s: _Sched, *stages: tuple[Schedule, _Hops]) -> Timeline:
    """Walk each stage's hop lists in order, emitting events through its hop kind."""
    for sch, hops in stages:
        hops.prep(sch)
        for step in sch.steps:
            for h in step.sends:
                hops.send(h)
            for group in step.recvs:
                hops.recv(group)
        hops.done(sch)
    return s.finish()


def _elements(tensor_bytes: int, spec: PartitionSpec) -> int:
    if tensor_bytes % 2:
        raise DivisibilityError(f"tensor_bytes={tensor_bytes} is not a whole BF16 element count")
    elems = tensor_bytes // 2
    spec.validate_element_count(elems)
    return elems


def simulate(cfg: CollectiveConfig, tensor_bytes: int, link: LinkParams,
             compute: ComputeParams) -> Timeline:
    """Schedule one AllReduce of a BF16 tensor of tensor_bytes and return its timeline."""
    spec = cfg.spec
    n, m, u = spec.num_devices, spec.minishards_per_shard, spec.microshards_per_minishard
    e_shard = _elements(tensor_bytes, spec) // n
    s = _Sched(link, compute)

    def hops(stage: str, quantized: bool) -> _Hops:
        return _Quant(s, stage, e_shard // (m * u), u) if quantized else _Plain(s, stage, "raw", 2)

    q_rs, q_ag = cfg.quantize_rs, cfg.quantize_ag
    return _execute(
        s,
        (rs_schedule(cfg.variant, n, m if q_rs else e_shard, q_rs), hops("rs", q_rs)),
        (ag_schedule(cfg.variant, n, m if q_ag else e_shard), hops("ag", q_ag)),
    )


def _lowp_ring(spec: PartitionSpec, tensor_bytes: int, link: LinkParams,
               compute: ComputeParams, cast: bool) -> Timeline:
    """Full-loop ring at 1 byte per element; optional cast/recode/decode passes."""
    n = spec.num_devices
    e_shard = _elements(tensor_bytes, spec) // n
    s = _Sched(link, compute)
    return _execute(
        s,
        (rs_schedule(Variant.FULL_LOOP, n, e_shard, False), _Plain(s, "rs", "pay", 1, cast, True)),
        (ag_schedule(Variant.FULL_LOOP, n, e_shard), _Plain(s, "ag", "pay", 1, cast, True)),
    )


def simulate_naive(spec: PartitionSpec, tensor_bytes: int, link: LinkParams,
                   compute: ComputeParams) -> Timeline:
    """Naive cast-to-8-bit AllReduce: half the wire bytes plus cast/recode passes."""
    return _lowp_ring(spec, tensor_bytes, link, compute, cast=True)


def simulate_ideal_2to1(spec: PartitionSpec, tensor_bytes: int, link: LinkParams,
                        compute: ComputeParams) -> Timeline:
    """Hypothetical lossless 2:1 compression: half the wire bytes, add-only compute."""
    return _lowp_ring(spec, tensor_bytes, link, compute, cast=False)


def predict_speedup(cfg_a: CollectiveConfig, cfg_b: CollectiveConfig, tensor_bytes: int,
                    link: LinkParams, compute: ComputeParams) -> float:
    """How much faster cfg_a runs than cfg_b: time(b) / time(a)."""
    ta = simulate(cfg_a, tensor_bytes, link, compute).total_time
    tb = simulate(cfg_b, tensor_bytes, link, compute).total_time
    return tb / ta

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

One representative device. The ring is rotation-symmetric: device d runs
device 0's hop lists on shards shifted by d, so its events are device 0's
exactly, times included. The schedule's hop lists are device 0's, and
the executor walks them with device-relative dependency keys, which name
a stage, direction, iteration and unit but never a shard. A device sends
one arc and receives one per (direction, iteration), so a key is unique
on device 0, and the key a neighbour's send would produce is done when
device 0's own send of that (direction, iteration) is; each step emits
its sends before its receives. The overlap check runs on device 0's
events, and every other device's are copies of them, so it covers every
event. A `Timeline` is device 0's events plus where each segment of the
emission order ends (after each stage's prep, each step's sends and
receives, and each stage's end). `_expand` alone lays out devices
1..N-1, repeating every segment once per device, device 0 first; only
`Timeline.columns` (and so `events`) and `to_jsonl` call it.

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
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import pairwise, zip_longest
from json.encoder import encode_basestring_ascii

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
        if not (math.isfinite(self.bandwidth_bytes_per_s) and self.bandwidth_bytes_per_s > 0):
            raise ValueError("bandwidth_bytes_per_s must be finite and > 0")
        if not (math.isfinite(self.hop_latency_s) and self.hop_latency_s >= 0):
            raise ValueError("hop_latency_s must be finite and >= 0")


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
            rate = getattr(self, name)
            if not (math.isfinite(rate) and rate > 0):
                raise ValueError(f"{name} must be finite and > 0")


@dataclass(frozen=True)
class TimelineEvent:
    device: int
    resource: str
    start_s: float
    end_s: float
    label: str


class _Events(Sequence[TimelineEvent]):
    """Read-only view of a timeline's events that builds each event on access.

    Slicing returns a tuple of events.
    """

    __slots__ = ("_tl",)

    def __init__(self, tl: Timeline):
        self._tl = tl

    def __len__(self) -> int:
        return self._tl.n * len(self._tl.label)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(TimelineEvent, *(c[i] for c in self._tl.columns)))
        return TimelineEvent(*(c[i] for c in self._tl.columns))

    def __iter__(self):
        return map(TimelineEvent, *self._tl.columns)


def _expand(n: int, bounds: Sequence[int], cols: tuple[Sequence, ...]) -> tuple[list, ...]:
    """The device column and all n devices' `cols` from device 0's: each
    segment of device 0's events (between consecutive bounds) repeats once
    per device, device 0 first.
    """
    device: list[int] = []
    out: tuple[list, ...] = tuple([] for _ in cols)
    for a, b in pairwise(bounds):
        for d in range(n):
            device += [d] * (b - a)
        for full, col in zip(out, cols):
            full += col[a:b] * n
    return (device, *out)


@dataclass(frozen=True, eq=False)
class Timeline:
    """The events of n devices that each run device 0's events, in emission order.

    `resource`, `start_s`, `end_s` and `label` are device 0's events as
    parallel columns (entry i of each is a field of its event i), and
    `bounds` are where each segment of the emission order ends, from 0 to
    the column length. Across devices the emission order is each segment
    once per device, device 0 first (see `_expand`). `total_time`,
    `stage_end`, `len(events)` and `idle_time` read device 0's columns;
    `to_jsonl` expands its lines; `columns` and `events` are the n
    devices' events, built on first read.
    """

    n: int
    bounds: Sequence[int]
    resource: Sequence[str]
    start_s: Sequence[float]
    end_s: Sequence[float]
    label: Sequence[str]

    def __post_init__(self):
        if len({len(self.resource), len(self.start_s), len(self.end_s), len(self.label)}) > 1:
            raise ValueError("timeline columns differ in length")
        b = self.bounds
        if not (b and b[0] == 0 and b[-1] == len(self.label)
                and all(x < y for x, y in pairwise(b))):
            raise ValueError("timeline bounds must increase from 0 to the column length")

    @cached_property
    def columns(self) -> tuple[list, ...]:
        """The n devices' columns in `TimelineEvent` field order."""
        return _expand(self.n, self.bounds, (self.resource, self.start_s, self.end_s, self.label))

    @property
    def events(self) -> Sequence[TimelineEvent]:
        return _Events(self)

    @property
    def total_time(self) -> float:
        return max(self.end_s, default=0.0)

    def stage_end(self, prefix: str) -> float:
        """Latest end among events whose label starts with prefix (e.g. 'rs', 'ag')."""
        return max((e for e, lb in zip(self.end_s, self.label) if lb.startswith(prefix)),
                   default=0.0)

    def to_jsonl(self) -> str:
        """One line per event, byte for byte the `json.dumps` of its field dict."""
        # A finite sum means every time is finite, and json.dumps writes a
        # finite float as float.__repr__ does; it spells out NaN and Infinity.
        num = float.__repr__ if math.isfinite(sum(self.start_s) + sum(self.end_s)) else json.dumps
        enc = encode_basestring_ascii
        # Format all but the device once per event of device 0.
        tails = [f'"resource": {enc(r)}, "start_s": {num(s)}, "end_s": {num(e)}, '
                 f'"label": {enc(lb)}}}\n'
                 for r, s, e, lb in zip(self.resource, self.start_s, self.end_s, self.label)]
        device, tails = _expand(self.n, self.bounds, (tails,))
        return "".join([f'{{"device": {d}, {t}' for d, t in zip(device, tails)])


def idle_time(t: Timeline) -> float:
    """Sum over links of idle gaps between each link's first and last transfer.

    Every device's link windows are device 0's. They are summed in the order
    in which the n-device timeline first uses each (device, link), which is
    per segment the links device 0 first uses there, once per device, so the
    sum is bit for bit the per-event one.
    """
    windows: dict[str, list[float]] = {}
    order: list[str] = []
    for a, b in pairwise(t.bounds):
        seen = len(windows)
        for r, start, end in zip(t.resource[a:b], t.start_s[a:b], t.end_s[a:b]):
            if r == RES_VPU:
                continue
            w = windows.setdefault(r, [math.inf, 0.0, 0.0])
            w[0] = min(w[0], start)
            w[1] = max(w[1], end)
            w[2] += end - start
        order += list(windows)[seen:] * t.n
    gap = {r: last - first - busy for r, (first, last, busy) in windows.items()}
    return sum(gap[r] for r in order)


def lower_bound(variant: Variant, num_devices: int, d_bytes: float, bandwidth: float) -> float:
    """Bandwidth lower bound on reduce-scatter time for d_bytes moved at bandwidth B."""
    if num_devices < 2:
        raise ValueError("need at least 2 devices")
    if variant is Variant.SEMI_LOOP:
        return d_bytes / (2.0 * bandwidth)
    return (num_devices - 1) * d_bytes / (2.0 * num_devices * bandwidth)


def _check_overlap(resource, start_s, end_s, label) -> None:
    """Raise unless each resource runs one event at a time.

    Per-resource emission order is execution order, so each event may
    start at most 1e-12 s before the previous event on its resource ends,
    and the first event on a resource at most 1e-12 s before 0. The first
    overlapping event emitted is named.
    """
    prev_end: dict[str, float] = {}
    for r, start, end, lb in zip(resource, start_s, end_s, label):
        if not start >= prev_end.get(r, 0.0) - 1e-12:
            raise RuntimeError(f"overlap on {r} at {lb}")
        prev_end[r] = end


class _Sched:
    """Static-order list scheduler over device 0's link and VPU resources,
    keyed device-relatively (see the module docstring).

    Events go into parallel columns, one append per field. `mark` ends a
    segment of the emission order.
    """

    def __init__(self, n: int, link: LinkParams, compute: ComputeParams):
        self.n = n
        self.link = link
        self.compute = compute
        self.free: dict[str, float] = {}
        self.done: dict[tuple, float] = {}
        self.resource: list[str] = []
        self.start_s: list[float] = []
        self.end_s: list[float] = []
        self.label: list[str] = []
        self.bounds = [0]

    def _run(self, resource: str, label: str, dur: float, deps) -> float:
        t0 = self.free.get(resource, 0.0)
        for d in deps:
            dt = self.done[d]
            if dt > t0:
                t0 = dt
        t1 = t0 + dur
        self.free[resource] = t1
        self.resource.append(resource)
        self.start_s.append(t0)
        self.end_s.append(t1)
        self.label.append(label)
        return t1

    def vpu(self, keys, label: str, nelems: float, rate: float, deps=()):
        t1 = self._run(RES_VPU, label, nelems / rate, deps)
        for k in keys:
            self.done[k] = t1

    def send(self, direction: str, key, label: str, nbytes: float, deps=()):
        t1 = self._run(_LINK_OF[direction], label, nbytes / self.link.bandwidth_bytes_per_s, deps)
        # Receiver-side visibility: one hop latency after the wire drains.
        self.done[key] = t1 + self.link.hop_latency_s

    def join(self, key, deps):
        self.done[key] = max((self.done[d] for d in deps), default=0.0)

    def mark(self) -> None:
        if len(self.label) > self.bounds[-1]:
            self.bounds.append(len(self.label))

    def finish(self) -> Timeline:
        """Check device 0's events for overlaps; return the n-device timeline.

        The other devices' events are copies of device 0's, so this checks
        every event.
        """
        cols = (self.resource, self.start_s, self.end_s, self.label)
        _check_overlap(*cols)
        self.mark()
        return Timeline(self.n, self.bounds, *cols)


def _interleave(*seqs):
    out = []
    for row in zip_longest(*seqs):
        out.extend(x for x in row if x is not None)
    return out


def _recv_micro(s: _Sched, tag: str, e: float, arrive, add_key, scan_key):
    """Dq + Add (+ abs-max scan) of one arriving microshard on the VPU.

    With fuse_recv_pass the phases collapse into one pass gated by the
    slowest participating rate.
    """
    c = s.compute
    if c.fuse_recv_pass:
        rates = [c.dequant_rate, c.add_rate] + ([c.scan_rate] if scan_key else [])
        keys = [add_key] + ([scan_key] if scan_key else [])
        s.vpu(keys, f"rs:fused{tag}", e, min(rates), arrive)
        return
    dq_key = ("dq",) + add_key
    s.vpu([dq_key], f"rs:dq{tag}", e, c.dequant_rate, arrive)
    s.vpu([add_key], f"rs:add{tag}", e, c.add_rate, [dq_key])
    if scan_key:
        s.vpu([scan_key], f"rs:scan{tag}", e, c.scan_rate, [add_key])


def _prep_quant(s, tag, gs, u, e_micro, keys, stage, deps=()):
    """Send-side phase-1 scans (all microshards) then phase-2 encodes.

    The joined scans and the encodes are stored under every key prefix in
    keys: a semi-loop all-gather source encodes once for both directions.
    """
    c = s.compute
    scan = keys[0] + ("scan",)
    for g in gs:
        for j in range(u):
            s.vpu([scan + (g, j)], f"{stage}:scan:prep:{tag}:g={g}:j={j}", e_micro,
                  c.scan_rate, deps)
    for g in gs:
        for k in keys:
            s.join(k + ("scanj", g), [scan + (g, j) for j in range(u)])
        for j in range(u):
            s.vpu([k + ("enc", g, j) for k in keys], f"{stage}:enc:prep:{tag}:g={g}:j={j}",
                  e_micro, c.encode_rate, [keys[0] + ("scanj", g)])


def _key(stage: str, h: Hop, t: int) -> tuple:
    """Key prefix of what hop t in h's direction carries."""
    return (stage, h.arc.direction, t)


class _Hops:
    """How one stage's hops turn into events; `_execute` walks the hop lists."""

    def __init__(self, s: _Sched, stage: str):
        self.s = s
        self.stage = stage

    def _join_merges(self, sch: Schedule, arc_keys) -> None:
        # The all-gather starts once every partial merged at the owner. The
        # arcs device 0 heads run one per direction, like the owner's.
        self.s.join(("rs_done",), [k for h in sch.heads for k in arc_keys(h.arc)])


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
                _prep_quant(s, h.arc.direction, h.arc.units, u, e, [_key("rs", h, 1)], "rs")
            return
        # The source encodes its reduced shard (once for both directions when
        # the arcs carry it whole) and decodes its own codes too, so outputs
        # match everywhere.
        parts = [("", sch.heads)] if sch.whole else [(h.arc.direction, [h]) for h in sch.heads]
        for dn, ph in parts:
            _prep_quant(s, dn or "own", ph[0].arc.units, u, e,
                        [_key("ag", h, 1) for h in ph], "ag", deps=[("rs_done",)])
        for dn, ph in parts:
            enc = _key("ag", ph[0], 1) + ("enc",)
            tag = f":{dn}" if dn else ""
            for g in ph[0].arc.units:
                for j in range(u):
                    s.vpu([], f"ag:dq:own{tag}:g={g}:j={j}", e, s.compute.dequant_rate,
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
        s.send(dn, k + ("meta",), f"{st}:meta:it={t}:{dn}", len(gs) * GRID_BYTES, meta_deps)
        for g in gs:
            for j in range(u):
                s.send(dn, k + ("pay", g, j), f"{st}:pay:it={t}:{dn}:g={g}:j={j}", e,
                       [pay + (g, j)])

    def recv(self, recvs: tuple[Hop, ...]) -> None:
        s, st, e, u = self.s, self.stage, self.e, self.u
        c = s.compute
        for h, g in _interleave(*[[(h, g) for g in h.arc.units] for h in recvs]):
            a, t = h.arc, h.it
            dn = a.direction
            k = _key(st, h, t)
            if st == "ag":
                for j in range(u):
                    s.vpu([], f"ag:dq:it={t}:{dn}:g={g}:j={j}", e, c.dequant_rate,
                          [k + ("pay", g, j), k + ("meta",)])
                continue
            nxt = _key(st, h, t + 1)
            for j in range(u):
                tag = f":it={t}:{dn}:g={g}:j={j}"
                arrive = [k + ("pay", g, j), k + ("meta",)]
                if h.last:
                    if a.after:
                        # Fold into the accumulator the earlier arc's merge made.
                        arrive.append(("merge", a.after, g, j))
                    _recv_micro(s, tag, e, arrive, ("merge", dn, g, j), None)
                else:
                    _recv_micro(s, tag, e, arrive, nxt + ("add", g, j), nxt + ("scan", g, j))
            if not h.last:
                s.join(nxt + ("scanj", g), [nxt + ("scan", g, j) for j in range(u)])
                for j in range(u):
                    s.vpu([nxt + ("enc", g, j)], f"rs:enc:it={t + 1}:{dn}:g={g}:j={j}", e,
                          c.encode_rate, [nxt + ("scanj", g)])

    def done(self, sch: Schedule) -> None:
        if self.stage == "rs":
            u = self.u
            self._join_merges(sch, lambda a: [("merge", a.direction, g, j)
                                              for g in a.units for j in range(u)])


class _Plain(_Hops):
    """Unquantized hops: BF16 partials (raw hops, 2 bytes per element), or
    with `eight_bit` the 8-bit codes of the naive and ideal 2:1 rings (1 byte
    per element), where `cast` adds the naive ring's cast, recode and decode
    passes. The 8-bit rings gather each direction's half as soon as it is
    reduced.
    """

    def __init__(self, s: _Sched, stage: str, eight_bit: bool = False, cast: bool = False):
        super().__init__(s, stage)
        self.eight_bit, self.cast = eight_bit, cast

    def prep(self, sch: Schedule) -> None:
        if self.stage == "rs" and self.cast:
            for h in sch.heads:
                self.s.vpu([_key("rs", h, 1) + ("red",)], f"rs:cast:prep:{h.arc.direction}",
                           len(h.arc.units), self.s.compute.cast_rate)

    def send(self, h: Hop) -> None:
        st, t, dn = self.stage, h.it, h.arc.direction
        k = _key(st, h, t)
        if st == "rs":
            deps = [k + ("red",)] if t > 1 or self.cast else []
        elif t > 1:
            deps = [_key(st, h, t - 1) + ("wire",)]
        else:
            deps = [("merge", dn) if self.eight_bit else ("rs_done",)]
        word, elem_bytes = ("pay", 1) if self.eight_bit else ("raw", 2)
        self.s.send(dn, k + ("wire",), f"{st}:{word}:it={t}:{dn}", elem_bytes * len(h.arc.units),
                    deps)

    def recv(self, recvs: tuple[Hop, ...]) -> None:
        s, st = self.s, self.stage
        c = s.compute
        for h in recvs:
            a, t = h.arc, h.it
            dn, elems = a.direction, len(a.units)
            k = _key(st, h, t)
            arrive = [k + ("wire",)]
            if st == "ag":
                if self.cast:
                    s.vpu([], f"ag:dec:it={t}:{dn}", elems, c.cast_rate, arrive)
                else:
                    # Zero-cost landing marker: completion includes the final hop latency.
                    s.vpu([], f"ag:land:it={t}:{dn}", 0.0, 1.0, arrive)
                continue
            if h.last:
                out = ("merge", dn)
                if a.after:
                    arrive.append(("merge", a.after))
            else:
                out = _key(st, h, t + 1) + ("red",)
            if self.cast:
                s.vpu([k + ("sum",)], f"rs:add:it={t}:{dn}", elems, c.add_rate, arrive)
                s.vpu([out], f"rs:recode:it={t}:{dn}", elems, c.cast_rate, [k + ("sum",)])
            else:
                s.vpu([out], f"rs:add:it={t}:{dn}", elems, c.add_rate, arrive)

    def done(self, sch: Schedule) -> None:
        if self.stage == "rs":
            self._join_merges(sch, lambda a: [("merge", a.direction)])
        elif self.cast:
            for h in sch.heads:
                self.s.vpu([], f"ag:dec:own:{h.arc.direction}", len(h.arc.units),
                           self.s.compute.cast_rate, [("merge", h.arc.direction)])


def _execute(s: _Sched, *stages: tuple[Schedule, _Hops]) -> Timeline:
    """Walk device 0's hop lists of each stage in order, emitting events
    through its hop kind; a segment ends after each stage's prep, each
    step's sends, each step's receives and each stage's done."""
    for sch, hops in stages:
        hops.prep(sch)
        s.mark()
        for step in sch.steps:
            for h in step.sends:
                hops.send(h)
            s.mark()
            hops.recv(step.recvs)
            s.mark()
        hops.done(sch)
        s.mark()
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
    s = _Sched(n, link, compute)

    def hops(stage: str, quantized: bool) -> _Hops:
        return _Quant(s, stage, e_shard // (m * u), u) if quantized else _Plain(s, stage)

    q_rs, q_ag = cfg.quantize_rs, cfg.quantize_ag
    return _execute(
        s,
        (rs_schedule(cfg.variant, n, m if q_rs else e_shard), hops("rs", q_rs)),
        (ag_schedule(cfg.variant, n, m if q_ag else e_shard), hops("ag", q_ag)),
    )


def _lowp_ring(spec: PartitionSpec, tensor_bytes: int, link: LinkParams,
               compute: ComputeParams, cast: bool) -> Timeline:
    """Full-loop ring at 1 byte per element; optional cast/recode/decode passes."""
    n = spec.num_devices
    e_shard = _elements(tensor_bytes, spec) // n
    s = _Sched(n, link, compute)
    rs, ag = (_Plain(s, stage, eight_bit=True, cast=cast) for stage in ("rs", "ag"))
    return _execute(
        s,
        (rs_schedule(Variant.FULL_LOOP, n, e_shard), rs),
        (ag_schedule(Variant.FULL_LOOP, n, e_shard), ag),
    )


def simulate_naive(spec: PartitionSpec, tensor_bytes: int, link: LinkParams,
                   compute: ComputeParams) -> Timeline:
    """Naive cast-to-8-bit AllReduce: half the wire bytes plus cast/recode passes."""
    return _lowp_ring(spec, tensor_bytes, link, compute, cast=True)


def simulate_ideal_2to1(spec: PartitionSpec, tensor_bytes: int, link: LinkParams,
                        compute: ComputeParams) -> Timeline:
    """Hypothetical lossless 2:1 compression: half the wire bytes, add-only compute."""
    return _lowp_ring(spec, tensor_bytes, link, compute, cast=False)

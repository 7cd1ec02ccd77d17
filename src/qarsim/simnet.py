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

The hop structure comes from `schedule`'s arcs. One executor walks shard
0's arcs iteration by iteration and emits each hop's events through the
hop kind the config picks per stage: quantized, raw BF16, or the naive
ring's 8-bit casts (`cast`). The ideal 2:1 ring sends those bytes uncast.

One representative device. The ring is rotation-symmetric: device d runs
device 0's hops on shards shifted by d, so its events are device 0's
exactly, times included. In iteration t device 0 sends hop t of one arc
per direction and receives hop t of another, and every shard's arcs are
shard 0's rotated, so the executor emits shard 0's hop t of each
direction. Times are handed straight from event to event: each hop kind
holds, per direction, what hop t hands on (when its data is ready to
send, then when it arrives), and the reduce-scatter's merge ends cross
into the all-gather on the scheduler. None of them names a shard, so the
arrival device 0's send of a (direction, iteration) hands to its own
receive is the time its neighbour's matching send arrives; each
iteration emits its sends before its receives. The overlap check runs on
device 0's events, and every other device's are copies of them, so it
covers every event. A `Timeline` is device 0's events plus where each
segment of the emission order ends (after each stage's prep, each
iteration's sends and receives, and each stage's end). Only
`Timeline._per_device` lays out devices 1..N-1: every segment once per
device, device 0 first; its callers say how to render one copy.

A simulated timeline schedules nothing until it is read. `total_time` and
`len(events)`, read before anything else, come from a walk that keeps no
column and formats no label; the first read of anything else walks once
more, recording, and keeps device 0's columns. Both walks run the same
float operations in the same order, so they agree bit for bit, and both
run one overlap check, in `_Sched.run`, on every event. Both raise
`OverflowError` if the latest time is not finite, so every time a
timeline shows is finite.

Dependency rules mirror the functional collectives: a microshard's
dequantize waits for its payload bytes and for its minishard's metadata;
add follows dequantize; the scale-encode of any microshard in a minishard
waits for the abs-max scans of all u microshards of that minishard; each
iteration's metadata is enqueued on the link before its payloads; the next
iteration's send waits for the receive pass that produced its data, and
an all-gather forward for the arrival of what it forwards. Send-side
encode of one microshard overlaps the link transfer of the previous one
(software pipelining), and raw (unquantized) hops carry BF16 shards with
no compute except the add.

Tensor sizes are given in bytes of the BF16 tensor, so element count is
bytes / 2. Quantized hops send `quant`'s wire message, one per minishard;
`tests/test_cross_half.py` holds these link bytes to the functional ring's.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, pairwise, repeat, zip_longest
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

from .collectives import CollectiveConfig
from .layout import DivisibilityError, PartitionSpec
from .quant import GRID_BYTES
from .schedule import Arc, Variant, ag_arcs, rs_arcs

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
        return self._tl.n * self._tl._span[1]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(TimelineEvent, *(c[i] for c in self._tl.columns)))
        return TimelineEvent(*(c[i] for c in self._tl.columns))

    def __iter__(self):
        return map(TimelineEvent, *self._tl.columns)


def _lead_rows(lead: Callable[[int], str]) -> Callable[[int, Sequence[str]], list[str]]:
    """A `Timeline._per_device` copy: device d's rows, each after `lead(d)`."""
    def copy(d, seg):
        items = [lead(d)] * (2 * len(seg))
        items[1::2] = seg
        return items
    return copy


class Timeline:
    """The events of n devices that each run device 0's events, in emission order.

    `walk(record)` schedules device 0's events and returns the finished
    `_Sched`; nothing is walked until the timeline is read (see the module
    docstring). `resource`, `start_s`, `end_s` and `label` are device 0's
    events as parallel columns (entry i of each is a field of its event
    i), and `bounds` are where each segment of the emission order ends,
    from 0 to the column length. Across devices the emission order is each
    segment once per device, device 0 first, as `_per_device` lays it out.
    `total_time`, `stage_end`, `len(events)` and `idle_time` read device
    0's columns; `columns` and `events` are the n devices' events, built on
    first read.
    """

    def __init__(self, n: int, walk: Callable[[bool], _Sched]):
        self.n, self._walk = n, walk

    @cached_property
    def _record(self) -> _Sched:
        """Device 0's columns and bounds, recorded by walking once more."""
        return self._walk(True)

    bounds = property(lambda self: self._record.bounds)
    resource = property(lambda self: self._record.resource)
    start_s = property(lambda self: self._record.start_s)
    end_s = property(lambda self: self._record.end_s)
    label = property(lambda self: self._record.label)

    @cached_property
    def _span(self) -> tuple[float, int]:
        """The latest end and device 0's event count: from the recording walk
        when it has run, else from a walk that records nothing."""
        s = vars(self).get("_record") or self._walk(False)
        return s.latest, s.count

    def _per_device(self, rows: Sequence, copy: Callable[[int, Sequence], Iterable]) -> Iterator:
        """The items of `copy(d, seg)` for each segment `seg` of device 0's
        `rows` (one per event), sliced once, and each device d, device 0 first:
        one stream, so an export joins rows into its result, no string per copy."""
        segs = (rows[a:b] for a, b in pairwise(self.bounds))
        return chain.from_iterable(copy(d, seg) for seg in segs for d in range(self.n))

    @cached_property
    def columns(self) -> tuple[list, ...]:
        """The n devices' columns in `TimelineEvent` field order."""
        return (list(self._per_device(self.label, lambda d, seg: repeat(d, len(seg)))),
                *(list(self._per_device(col, lambda d, seg: seg))
                  for col in (self.resource, self.start_s, self.end_s, self.label)))

    @property
    def events(self) -> Sequence[TimelineEvent]:
        return _Events(self)

    @property
    def total_time(self) -> float:
        return self._span[0]

    def stage_end(self, prefix: str) -> float:
        """Latest end among events whose label starts with prefix (e.g. 'rs', 'ag')."""
        return max((e for e, lb in zip(self.end_s, self.label) if lb.startswith(prefix)),
                   default=0.0)

    def to_jsonl(self) -> str:
        """One line per event, byte for byte the `json.dumps` of its field dict."""
        # Every time is finite (a walk raises before a non-finite one can be
        # read), and json.dumps writes a finite float as float.__repr__ does.
        num, enc = float.__repr__, encode_basestring_ascii
        # Format device 0's lines once from the resource on; each copy leads
        # each line with `{"device": d`.
        lines = [f', "resource": {enc(r)}, "start_s": {num(s)}, "end_s": {num(e)}, '
                 f'"label": {enc(lb)}}}\n'
                 for r, s, e, lb in zip(self.resource, self.start_s, self.end_s, self.label)]
        return "".join(self._per_device(lines, _lead_rows(lambda d: f'{{"device": {d}')))

    def to_csv(self, *constants) -> str:
        """`csv.writer`'s rows, with no header, of the n devices' events: each
        event's fields in `TimelineEvent` order, then `constants`."""
        # Format device 0's rows once without the device field (the writer
        # hands `write` one row at a time); each copy leads each row with `d,`.
        rows: list[str] = []
        csv.writer(SimpleNamespace(write=rows.append), lineterminator="\n").writerows(
            zip(self.resource, self.start_s, self.end_s, self.label, *map(repeat, constants)))
        return "".join(self._per_device(rows, _lead_rows(lambda d: f"{d},")))


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


def lower_bound(cfg: CollectiveConfig, tensor_bytes: int, link: LinkParams) -> float:
    """Bandwidth lower bound on reduce-scatter time, on the stage's wire bytes: the
    BF16 tensor's for a raw stage, half of them for a cast one, and half of
    them plus one scale grid per minishard of each shard for a quantized one."""
    n, m = cfg.spec.num_devices, cfg.spec.minishards_per_shard
    _elements(tensor_bytes, cfg.spec)
    wire = (tensor_bytes / 2 + n * m * GRID_BYTES if cfg.quantize_rs
            else tensor_bytes / 2 if cfg.cast else tensor_bytes)
    if cfg.variant is Variant.SEMI_LOOP:
        return wire / (2.0 * link.bandwidth_bytes_per_s)
    return (n - 1) * wire / (2.0 * n * link.bandwidth_bytes_per_s)


class _Sched:
    """Static-order list scheduler over device 0's link and VPU resources.

    `run` checks every event against its resource's previous end, and
    raises `RuntimeError` naming the resource (and the label when
    recording) if it starts earlier. With `record`, events go into
    parallel columns, one append per field, and `mark` ends a segment of
    the emission order; without it, the events are only counted, and the
    hop kinds format no label (they pass `record and label`). `merge` and
    `rs_done` are what crosses from the reduce-scatter into the
    all-gather: per direction, when the owner's merges end (per minishard
    g and microshard j for quantized hops), and when the last of them
    does.
    """

    def __init__(self, link: LinkParams, compute: ComputeParams, record: bool):
        self.link = link
        self.compute = compute
        self.record = record
        self.free: dict[str, float] = {}
        self.count = 0
        self.merge: dict = {}
        self.rs_done = 0.0
        self.resource: list[str] = []
        self.start_s: list[float] = []
        self.end_s: list[float] = []
        self.label: list[str] = []
        self.bounds = [0]

    def run(self, resource: str, label: str | bool, dur: float, ready: float = 0.0) -> float:
        """Run an event once resource is free and its inputs are ready; return its end.

        `label` is False when the walk does not record."""
        prev = self.free.get(resource, 0.0)
        t0 = ready if ready > prev else prev
        if not t0 >= prev:  # fails only on a NaN time
            raise RuntimeError(f"overlap on {resource} at {label}" if self.record
                               else f"overlap on {resource}")
        t1 = t0 + dur
        self.free[resource] = t1
        self.count += 1
        if self.record:
            self.resource.append(resource)
            self.start_s.append(t0)
            self.end_s.append(t1)
            self.label.append(label)
        return t1

    def send(self, direction: str, label: str | bool, nbytes: float, ready: float = 0.0) -> float:
        """Put nbytes on direction's link; return when the receiver sees them,
        one hop latency after the wire drains."""
        end = self.run(_LINK_OF[direction], label, nbytes / self.link.bandwidth_bytes_per_s, ready)
        return end + self.link.hop_latency_s

    def mark(self) -> None:
        if len(self.label) > self.bounds[-1]:
            self.bounds.append(len(self.label))

    def finish(self) -> _Sched:
        """Check every time for overflow; set `latest`, the latest end.

        Each resource's ends never decrease, so `latest` is bit for bit the
        latest end of any event.
        """
        if not all(map(math.isfinite, self.free.values())):
            raise OverflowError(f"simulated times overflow under {self.link} and {self.compute}")
        self.latest = max(self.free.values(), default=0.0)
        return self


def _interleave(*seqs):
    out = []
    for row in zip_longest(*seqs):
        out.extend(x for x in row if x is not None)
    return out


def _prep_quant(s: _Sched, tag: str, gs: range, u: int, e_micro: int, stage: str,
                ready: float = 0.0) -> tuple[dict[int, float], dict[int, list[float]]]:
    """Send-side phase-1 scans (all microshards) then phase-2 encodes.

    Returns the scan join per minishard and the encode ends per microshard.
    """
    c, rec = s.compute, s.record
    scan, enc = e_micro / c.scan_rate, e_micro / c.encode_rate
    scans = {g: [s.run(RES_VPU, rec and f"{stage}:scan:prep:{tag}:g={g}:j={j}", scan, ready)
                 for j in range(u)] for g in gs}
    joined = {g: max(ends) for g, ends in scans.items()}
    return joined, {g: [s.run(RES_VPU, rec and f"{stage}:enc:prep:{tag}:g={g}:j={j}", enc,
                              joined[g])
                        for j in range(u)] for g in gs}


class _Quant:
    """Block-quantized hops: one metadata transfer (a scale grid per minishard),
    then the payload microshards.

    Reduce-scatter receivers dequantize, add, scan and re-encode for the next
    hop; all-gather receivers dequantize. `whole`: every arc carries the
    whole shard (semi loop).
    """

    def __init__(self, s: _Sched, stage: str, e_micro: int, u: int, whole: bool):
        self.s, self.stage = s, stage
        self.e, self.u, self.whole = e_micro, u, whole
        # Per direction, the times hop t hands on: the scan join per minishard
        # g and the encode ends per microshard (g, j) of what it sends, then
        # the metadata and payload arrivals.
        self.scanj: dict[str, dict[int, float]] = {}
        self.enc: dict[str, dict[int, list[float]]] = {}
        self.meta: dict[str, float] = {}
        self.pay: dict[str, dict[int, list[float]]] = {}

    def prep(self, arcs: list[Arc]) -> None:
        s, e, u = self.s, self.e, self.u
        if self.stage == "rs":
            for a in arcs:
                dn = a.direction
                self.scanj[dn], self.enc[dn] = _prep_quant(s, dn, a.units, u, e, "rs")
            return
        # The source encodes its reduced shard (once for both directions when
        # the arcs carry it whole) and decodes its own codes too, so outputs
        # match everywhere.
        parts = [("", arcs)] if self.whole else [(a.direction, [a]) for a in arcs]
        for dn, pa in parts:
            scanj, enc = _prep_quant(s, dn or "own", pa[0].units, u, e, "ag", s.rs_done)
            for a in pa:
                self.scanj[a.direction], self.enc[a.direction] = scanj, enc
        dq, rec = e / s.compute.dequant_rate, s.record
        for dn, pa in parts:
            enc = self.enc[pa[0].direction]
            tag = f":{dn}" if dn else ""
            for g in pa[0].units:
                for j in range(u):
                    s.run(RES_VPU, rec and f"ag:dq:own{tag}:g={g}:j={j}", dq, enc[g][j])

    def send(self, a: Arc, t: int) -> None:
        s, st, e, u = self.s, self.stage, self.e, self.u
        dn, gs, rec = a.direction, a.units, s.record
        if st == "ag" and t > 1:
            # Forward the codes and grids that arrived on the previous hop.
            meta, pay = self.meta[dn], self.pay[dn]
        else:
            meta, pay = max(self.scanj[dn][g] for g in gs), self.enc[dn]
        self.meta[dn] = s.send(dn, rec and f"{st}:meta:it={t}:{dn}", len(gs) * GRID_BYTES, meta)
        self.pay[dn] = {g: [s.send(dn, rec and f"{st}:pay:it={t}:{dn}:g={g}:j={j}", e, pay[g][j])
                            for j in range(u)] for g in gs}

    def recv(self, arcs: list[Arc], t: int) -> None:
        s, st, e, u = self.s, self.stage, self.e, self.u
        c, rec = s.compute, s.record
        dq, add, scan, enc = (e / r for r in (c.dequant_rate, c.add_rate, c.scan_rate,
                                             c.encode_rate))
        # With fuse_recv_pass a microshard's dequantize, add (and scan) are one
        # pass gated by the slowest participating rate.
        fused_last = e / min(c.dequant_rate, c.add_rate)
        fused = e / min(c.dequant_rate, c.add_rate, c.scan_rate)
        for a, g in _interleave(*[[(a, g) for g in a.units] for a in arcs]):
            dn, last = a.direction, t == len(a.devices) - 1
            pay, meta = self.pay[dn][g], self.meta[dn]
            if st == "ag":
                for j in range(u):
                    s.run(RES_VPU, rec and f"ag:dq:it={t}:{dn}:g={g}:j={j}", dq, max(pay[j], meta))
                continue
            # Fold into the accumulator the earlier arc's merge made.
            after = s.merge[a.after][g] if last and a.after else None
            ends = []
            for j in range(u):
                tag = rec and f":it={t}:{dn}:g={g}:j={j}"
                ready = max(pay[j], meta) if after is None else max(pay[j], meta, after[j])
                if c.fuse_recv_pass:
                    end = s.run(RES_VPU, rec and f"rs:fused{tag}", fused_last if last else fused,
                                ready)
                else:
                    end = s.run(RES_VPU, rec and f"rs:dq{tag}", dq, ready)
                    end = s.run(RES_VPU, rec and f"rs:add{tag}", add, end)
                    if not last:
                        end = s.run(RES_VPU, rec and f"rs:scan{tag}", scan, end)
                ends.append(end)
            if last:
                s.merge.setdefault(dn, {})[g] = ends
                continue
            joined = self.scanj[dn][g] = max(ends)
            self.enc[dn][g] = [s.run(RES_VPU, rec and f"rs:enc:it={t + 1}:{dn}:g={g}:j={j}", enc,
                                     joined)
                               for j in range(u)]

    def done(self, arcs: list[Arc]) -> None:
        if self.stage == "rs":
            # The all-gather starts once every partial merged at the owner.
            self.s.rs_done = max(end for a in arcs for ends in self.s.merge[a.direction].values()
                                 for end in ends)


class _Plain:
    """Unquantized hops: BF16 partials (raw hops, 2 bytes per element), or
    with `eight_bit` the 8-bit codes of the naive and ideal 2:1 rings (1 byte
    per element), where `cast` adds the naive ring's cast, recode and decode
    passes. The 8-bit rings gather each direction's half as soon as it is
    reduced.
    """

    def __init__(self, s: _Sched, stage: str, eight_bit: bool = False, cast: bool = False):
        self.s, self.stage = s, stage
        self.eight_bit, self.cast = eight_bit, cast
        # Per direction, when what hop t sends is ready (unset: at 0, a raw
        # head's own value), then when it arrives.
        self.wire: dict[str, float] = {}

    def prep(self, arcs: list[Arc]) -> None:
        s = self.s
        for a in arcs:
            dn = a.direction
            if self.stage == "ag":
                self.wire[dn] = s.merge[dn] if self.eight_bit else s.rs_done
            elif self.cast:
                self.wire[dn] = s.run(RES_VPU, s.record and f"rs:cast:prep:{dn}",
                                      len(a.units) / s.compute.cast_rate)

    def send(self, a: Arc, t: int) -> None:
        dn = a.direction
        word, elem_bytes = ("pay", 1) if self.eight_bit else ("raw", 2)
        self.wire[dn] = self.s.send(dn, self.s.record and f"{self.stage}:{word}:it={t}:{dn}",
                                    elem_bytes * len(a.units), self.wire.get(dn, 0.0))

    def recv(self, arcs: list[Arc], t: int) -> None:
        s, st = self.s, self.stage
        c, rec = s.compute, s.record
        for a in arcs:
            dn, elems = a.direction, len(a.units)
            arrive = self.wire[dn]
            if st == "ag":
                if self.cast:
                    s.run(RES_VPU, rec and f"ag:dec:it={t}:{dn}", elems / c.cast_rate, arrive)
                else:
                    # Zero-cost landing marker: completion includes the final hop latency.
                    s.run(RES_VPU, rec and f"ag:land:it={t}:{dn}", 0.0, arrive)
                continue
            last = t == len(a.devices) - 1
            if last and a.after:
                arrive = max(arrive, s.merge[a.after])
            end = s.run(RES_VPU, rec and f"rs:add:it={t}:{dn}", elems / c.add_rate, arrive)
            if self.cast:
                end = s.run(RES_VPU, rec and f"rs:recode:it={t}:{dn}", elems / c.cast_rate, end)
            if last:
                s.merge[dn] = end
            else:
                self.wire[dn] = end

    def done(self, arcs: list[Arc]) -> None:
        s = self.s
        if self.stage == "rs":
            s.rs_done = max(s.merge[a.direction] for a in arcs)
        elif self.cast:
            for a in arcs:
                s.run(RES_VPU, s.record and f"ag:dec:own:{a.direction}",
                      len(a.units) / s.compute.cast_rate, s.merge[a.direction])


def _execute(s: _Sched, *stages: tuple[list[Arc], _Quant | _Plain]) -> _Sched:
    """Walk each stage's shard-0 arcs in order, emitting device 0's events
    through its hop kind: in iteration t, hop t of every arc that has one is
    sent, then received, CW before CCW. A segment ends after each stage's
    prep, each iteration's sends, each iteration's receives and each stage's
    done."""
    for arcs, hops in stages:
        hops.prep(arcs)
        s.mark()
        for t in range(1, max(len(a.devices) for a in arcs)):
            live = [a for a in arcs if len(a.devices) > t]
            for a in live:
                hops.send(a, t)
            s.mark()
            hops.recv(live, t)
            s.mark()
        hops.done(arcs)
        s.mark()
    return s.finish()


def _elements(tensor_bytes: int, spec: PartitionSpec) -> int:
    if tensor_bytes % 2:
        raise DivisibilityError(f"tensor_bytes={tensor_bytes} is not a whole BF16 element count")
    elems = tensor_bytes // 2
    spec.validate_element_count(elems)
    return elems


def _ring(cfg: CollectiveConfig, tensor_bytes: int, link: LinkParams, compute: ComputeParams,
          eight_bit: bool) -> Timeline:
    """`simulate`'s timeline; `eight_bit` sends the plain stages' codes at 1 byte
    per element (the naive ring's, with cfg.cast, else the ideal 2:1 ring's)."""
    spec = cfg.spec
    n, m, u = spec.num_devices, spec.minishards_per_shard, spec.microshards_per_minishard
    e_shard = _elements(tensor_bytes, spec) // n
    q_rs, q_ag = cfg.quantize_rs, cfg.quantize_ag
    rs = rs_arcs(cfg.variant, n, m if q_rs else e_shard)[0]
    ag = ag_arcs(cfg.variant, n, m if q_ag else e_shard)[0]

    def walk(record: bool) -> _Sched:
        s = _Sched(link, compute, record)

        def hops(stage: str, quantized: bool) -> _Quant | _Plain:
            if quantized:
                return _Quant(s, stage, e_shard // (m * u), u, cfg.variant is Variant.SEMI_LOOP)
            return _Plain(s, stage, eight_bit, cfg.cast)

        return _execute(s, (rs, hops("rs", q_rs)), (ag, hops("ag", q_ag)))

    return Timeline(n, walk)


def simulate(cfg: CollectiveConfig, tensor_bytes: int, link: LinkParams,
             compute: ComputeParams) -> Timeline:
    """The timeline of one AllReduce of a BF16 tensor of tensor_bytes, scheduled when read."""
    return _ring(cfg, tensor_bytes, link, compute, eight_bit=cfg.cast)


def simulate_naive(spec: PartitionSpec, tensor_bytes: int, link: LinkParams,
                   compute: ComputeParams) -> Timeline:
    """Naive cast-to-8-bit AllReduce: half the wire bytes plus cast/recode passes."""
    return simulate(CollectiveConfig(Variant.FULL_LOOP, spec, cast=True), tensor_bytes, link,
                    compute)


def simulate_ideal_2to1(spec: PartitionSpec, tensor_bytes: int, link: LinkParams,
                        compute: ComputeParams) -> Timeline:
    """Hypothetical lossless 2:1 compression: half the wire bytes, add-only compute."""
    return _ring(CollectiveConfig(Variant.FULL_LOOP, spec), tensor_bytes, link, compute,
                 eight_bit=True)

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
send, then when it arrives; for quantized hops one pair, the grid's time
and the payload microshards'), and the reduce-scatter's merge ends cross
into the all-gather on the scheduler. None of them names a shard, so the
arrival device 0's send of a (direction, iteration) hands to its own
receive is the time its neighbour's matching send arrives; each
iteration emits its sends before its receives. A quantized hop kind hands
the scheduler each iteration's events as one batch per resource, so a walk
makes as many scheduler calls at any m. The overlap check runs on device
0's events, and every other device's are copies of them, so it covers
every event. A `Timeline` is device 0's events plus where each segment of
the emission order ends (after each stage's prep, each iteration's sends
and receives, and each stage's end). Only `Timeline._per_device` lays out
devices 1..N-1: every segment once per device, device 0 first; its
callers say how to render one copy.

A simulated timeline schedules nothing until it is read. `total_time` and
`len(events)`, read before anything else, come from a walk that keeps no
column and formats no label; the first read of anything else walks once
more, recording, and keeps device 0's columns. Both walks run the same
float operations in the same order, so they agree bit for bit, and both
run one overlap check, in `_Sched.batch`, on every event. Both raise
`OverflowError` if the latest time is not finite, so every time a
timeline shows is finite. A schedule whose N*m*u passes `WALK_BUDGET` is
refused before it walks.

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
from itertools import accumulate, chain, pairwise, repeat
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

from .collectives import CollectiveConfig
from .layout import DivisibilityError, PartitionSpec
from .quant import GRID_BYTES
from .schedule import Arc, Variant, shard_arcs

RES_LINK_CW = "LINK_CW"
RES_LINK_CCW = "LINK_CCW"
RES_VPU = "VPU"

_LINK_OF = {"cw": RES_LINK_CW, "ccw": RES_LINK_CCW}

# The largest N*m*u a simulation walks. Device 0's events grow linearly in it
# (26,652 at N=8, m=256, u=2, quantized), so a walk at the budget takes seconds.
# Every shipped study and workload sits 100x or more under it.
WALK_BUDGET = 1 << 21


class WalkBudgetError(ValueError):
    """A schedule whose N*m*u passes `WALK_BUDGET`."""


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
    them plus one scale grid per minishard of each shard for a quantized one.
    A bound past the float range raises `OverflowError`, as a walk's times do."""
    n, m = cfg.spec.num_devices, cfg.spec.minishards_per_shard
    _elements(tensor_bytes, cfg.spec)
    wire = (tensor_bytes / 2 + n * m * GRID_BYTES if cfg.quantize_rs
            else tensor_bytes / 2 if cfg.cast else tensor_bytes)
    bw = link.bandwidth_bytes_per_s
    bound = (wire / (2.0 * bw) if cfg.variant is Variant.SEMI_LOOP
             else (n - 1) * wire / (2.0 * n * bw))
    if not math.isfinite(bound):
        raise OverflowError(f"bandwidth bound overflows under {link}")
    return bound


class _Sched:
    """Static-order list scheduler over device 0's link and VPU resources.

    `batch` runs an ordered batch of events on one resource, checking each
    against the previous end there, and is its events run one by one; `run`
    is a batch of one. A start earlier than that end raises `RuntimeError`
    naming the resource (and the event's label when recording), once the
    events before it are kept. With `record`, events go into parallel
    columns, one extend per field a batch, and `mark` ends a segment of the
    emission order; without it, the events are only counted, and the hop
    kinds build no label (they pass `record and labels`). `merge` and
    `rs_done` are what crosses from the reduce-scatter into the all-gather:
    per direction, when the owner's merges end (a list in (g, j) order for
    quantized hops), and when the last of them does.
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

    def batch(self, resource: str, labels: Sequence[str] | bool, durs: Sequence[float],
              readys: Sequence[float]) -> list[float]:
        """Run event i for durs[i] once resource is free and readys[i] has passed,
        for each i in order; return the ends. `labels` is False when not recording."""
        prev = free = self.free.get(resource, 0.0)
        ends: list[float] = []
        push = ends.append
        for dur, ready in zip(durs, readys):
            t0 = ready if ready > prev else prev
            if not t0 >= prev:  # fails only on a NaN time
                break
            prev = t0 + dur
            push(prev)
        self.count += len(ends)
        if ends:
            self.free[resource] = prev
            if self.record:
                # Each start again, as the loop took it: max(ready, the previous end).
                self.start_s += [r if r > p else p for r, p in zip(readys, [free, *ends[:-1]])]
                self.resource += [resource] * len(ends)
                self.end_s += ends
                self.label += labels[:len(ends)]
        if len(ends) < len(durs):
            raise RuntimeError(f"overlap on {resource} at {labels[len(ends)]}" if self.record
                               else f"overlap on {resource}")
        return ends

    def run(self, resource: str, label: str | bool, dur: float, ready: float = 0.0) -> float:
        return self.batch(resource, (label,), (dur,), (ready,))[0]

    def send(self, direction: str, labels: Sequence[str] | bool, nbytes: Sequence[int],
             readys: Sequence[float]) -> list[float]:
        """Put each nbytes[i] on direction's link once readys[i] has passed; return
        when the receiver sees each, one hop latency after the wire drains."""
        bw, lat = self.link.bandwidth_bytes_per_s, self.link.hop_latency_s
        ends = self.batch(_LINK_OF[direction], labels, [b / bw for b in nbytes], readys)
        return [end + lat for end in ends]

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


def _vpu_rows(s: _Sched, blocks: list[list[tuple]]) -> list[list[list[float]]]:
    """Run each arc's per-minishard blocks as one VPU batch; return each arc's
    end columns.

    An arc's block is a list of columns (duration, readys, labels), one per
    event of the block, with one ready time and label per minishard. Row i
    of the batch is block i of each arc that has one, in arc order (CW g0,
    CCW g0, CW g1, ...). Every arc after the first has as many blocks as the
    first or one fewer, so column c of arc x is one extended slice of the
    batch, from x's offset in a row plus c, in steps of a row's length.
    """
    offs = list(accumulate(map(len, blocks), initial=0))
    width = offs[-1]
    size = sum(len(cols) * len(cols[0][1]) for cols in blocks)
    durs, readys = [0.0] * size, [0.0] * size
    labels = s.record and [""] * size
    for off, cols in zip(offs, blocks):
        for c, (dur, rdy, lab) in enumerate(cols, off):
            durs[c::width], readys[c::width] = [dur] * len(rdy), rdy
            if s.record:
                labels[c::width] = lab
    ends = s.batch(RES_VPU, labels, durs, readys)
    return [[ends[c::width] for c in range(off, off + len(cols))]
            for off, cols in zip(offs, blocks)]


def _gj(columns: Sequence[Sequence[float]]) -> list[float]:
    """One list in (g, j) order from u columns, column j holding microshard j
    of each minishard g."""
    return list(chain.from_iterable(zip(*columns)))


class _Quant:
    """Block-quantized hops: one metadata transfer (a scale grid per minishard),
    then the payload microshards.

    Reduce-scatter receivers dequantize, add, scan and re-encode for the next
    hop; all-gather receivers dequantize. `whole`: every arc carries the
    whole shard (semi loop). Each iteration's events go to the scheduler as
    one batch per link and one VPU batch over every live arc (`_vpu_rows`),
    each prep's scans and encodes as one VPU batch. An event that waits for
    the VPU event before it (add after dequantize, scan after add, encodes
    after their minishard's scans) is passed ready 0.0: it starts at that
    event's end either way.
    """

    def __init__(self, s: _Sched, stage: str, e_micro: int, u: int, whole: bool):
        self.s, self.stage = s, stage
        self.e, self.u, self.whole = e_micro, u, whole
        # Per direction, what hop t hands on: when its grid and each payload
        # microshard ((g, j) order) are ready to send, then when they arrive. A
        # reduce-scatter receive sets the next hop's last scan end and encode
        # ends; an all-gather leaves the arrivals, so the next hop forwards them.
        self.wire: dict[str, tuple[float, list[float]]] = {}

    def _scan_encode(self, tag: str, gs: range, ready: float) -> tuple[float, list[float]]:
        """Send-side phase-1 scans (all microshards) then phase-2 encodes, as one
        VPU batch; return when the last scan ends, and the encode ends."""
        s, u, c = self.s, self.u, self.s.compute
        k = len(gs) * u
        labels = s.record and [f"{self.stage}:{word}:prep:{tag}:g={g}:j={j}"
                               for word in ("scan", "enc") for g in gs for j in range(u)]
        ends = s.batch(RES_VPU, labels, [self.e / c.scan_rate] * k + [self.e / c.encode_rate] * k,
                       [ready] * k + [0.0] * k)
        return ends[k - 1], ends[k:]

    def prep(self, arcs: list[Arc]) -> None:
        s, u = self.s, self.u
        if self.stage == "rs":
            for a in arcs:
                self.wire[a.direction] = self._scan_encode(a.direction, a.units, 0.0)
            return
        # The source encodes its reduced shard (once for both directions when
        # the arcs carry it whole) and decodes its own codes too, so outputs
        # match everywhere.
        parts = [("", arcs)] if self.whole else [(a.direction, [a]) for a in arcs]
        for dn, pa in parts:
            wire = self._scan_encode(dn or "own", pa[0].units, s.rs_done)
            for a in pa:
                self.wire[a.direction] = wire
        dq = self.e / s.compute.dequant_rate
        for dn, pa in parts:
            tag = f":{dn}" if dn else ""
            enc = self.wire[pa[0].direction][1]
            labels = s.record and [f"ag:dq:own{tag}:g={g}:j={j}" for g in pa[0].units
                                   for j in range(u)]
            s.batch(RES_VPU, labels, [dq] * len(enc), enc)

    def send(self, a: Arc, t: int) -> None:
        s, st, dn = self.s, self.stage, a.direction
        meta, pay = self.wire[dn]
        labels = s.record and [f"{st}:meta:it={t}:{dn}",
                               *(f"{st}:pay:it={t}:{dn}:g={g}:j={j}" for g in a.units
                                 for j in range(self.u))]
        meta, *pay = s.send(dn, labels, [len(a.units) * GRID_BYTES] + [self.e] * len(pay),
                            [meta, *pay])
        self.wire[dn] = meta, pay

    def recv(self, arcs: list[Arc], t: int) -> None:
        s, st, e, u = self.s, self.stage, self.e, self.u
        c, rec = s.compute, s.record
        dq, add, scan, enc = (e / r for r in (c.dequant_rate, c.add_rate, c.scan_rate,
                                             c.encode_rate))
        # With fuse_recv_pass a microshard's dequantize, add (and scan) are one
        # pass gated by the slowest participating rate.
        fused_last = e / min(c.dequant_rate, c.add_rate)
        fused = e / min(c.dequant_rate, c.add_rate, c.scan_rate)
        blocks, passes = [], []
        for a in arcs:
            dn, gs, last = a.direction, a.units, t == len(a.devices) - 1
            meta, pay = self.wire[dn]
            # A microshard's first pass waits for its payload and its grid.
            ready = [meta if meta > p else p for p in pay]
            if st == "rs" and last and a.after:
                # Fold into the accumulator the earlier arc's merge made.
                ready = [x if x > r else r for r, x in zip(ready, s.merge[a.after])]
            if st == "ag":
                steps = [("ag:dq", dq)]
            elif c.fuse_recv_pass:
                steps = [("rs:fused", fused_last if last else fused)]
            else:
                steps = [("rs:dq", dq), ("rs:add", add)] + ([] if last else [("rs:scan", scan)])
            zero = [0.0] * len(gs)
            cols = [(dur, zero if k else ready[j::u],
                     rec and [f"{word}:it={t}:{dn}:g={g}:j={j}" for g in gs])
                    for j in range(u) for k, (word, dur) in enumerate(steps)]
            if st == "rs" and not last:
                cols += [(enc, zero, rec and [f"rs:enc:it={t + 1}:{dn}:g={g}:j={j}" for g in gs])
                         for j in range(u)]
            blocks.append(cols)
            passes.append(len(steps))
        ends = _vpu_rows(s, blocks)
        if st == "ag":
            return
        for a, k, cols in zip(arcs, passes, ends):
            dn = a.direction
            if t == len(a.devices) - 1:
                s.merge[dn] = _gj(cols[k - 1::k])
            else:
                # Ends on one resource never decrease, so the last scan ends last.
                self.wire[dn] = cols[k * u - 1][-1], _gj(cols[k * u:])

    def done(self, arcs: list[Arc]) -> None:
        if self.stage == "rs":
            # The all-gather starts once every partial merged at the owner.
            self.s.rs_done = max(chain.from_iterable(self.s.merge[a.direction] for a in arcs))


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
        self.wire[dn], = self.s.send(dn, [self.s.record and f"{self.stage}:{word}:it={t}:{dn}"],
                                     [elem_bytes * len(a.units)], [self.wire.get(dn, 0.0)])

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


def bf16_elements(tensor_bytes: int) -> int:
    """The element count of a BF16 tensor of tensor_bytes; an odd count is refused."""
    if tensor_bytes % 2:
        raise DivisibilityError(f"tensor_bytes={tensor_bytes} is not a whole BF16 element count")
    return tensor_bytes // 2


def _elements(tensor_bytes: int, spec: PartitionSpec) -> int:
    spec.validate_element_count(elems := bf16_elements(tensor_bytes))
    return elems


def _ring(cfg: CollectiveConfig, tensor_bytes: int, link: LinkParams, compute: ComputeParams,
          eight_bit: bool) -> Timeline:
    """`simulate`'s timeline; `eight_bit` sends the plain stages' codes at 1 byte
    per element (the naive ring's, with cfg.cast, else the ideal 2:1 ring's)."""
    spec = cfg.spec
    n, m, u = spec.num_devices, spec.minishards_per_shard, spec.microshards_per_minishard
    e_shard = _elements(tensor_bytes, spec) // n
    if n * m * u > WALK_BUDGET:
        raise WalkBudgetError(f"N*m*u = {n * m * u} (N={n}, m={m}, u={u}) passes the "
                              f"simulator's walk budget of {WALK_BUDGET}")
    q_rs, q_ag = cfg.quantize_rs, cfg.quantize_ag
    rs = shard_arcs(cfg.variant, n, m if q_rs else e_shard, 0, gather=False)
    ag = shard_arcs(cfg.variant, n, m if q_ag else e_shard, 0, gather=True)

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

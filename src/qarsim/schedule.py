"""The ring schedule: which device sends which part of which shard, and when.

This is the one description of the ring that both halves execute:
`collectives` runs its arcs on values, `simnet` runs its hop lists on
time. Every piece of ring index arithmetic lives here.

An arc is the chain of devices one partial visits. In the reduce-scatter
it starts at a head device, which quantizes its local value, and ends at
the shard's owner, which merges the arriving partial into its own value;
in the all-gather it starts at the owner and forwards the reduced shard.
Hop t of every arc runs in iteration t.

  full loop  two counter-rotating rings, N-1 hops each. Each carries its
             own part of every shard: the first ceil(units/2) units go
             clockwise (CW) and the rest counter-clockwise (CCW). Units are
             minishards when the hops are quantized, so scale grids stay
             whole, and elements otherwise (always an even count, so the
             split is the element midpoint).
  semi loop  N even. Both arcs carry the whole shard. Reduce-scatter: the
             CW arc (N/2-1 hops, from s-N/2+1) merges into the owner's
             local value first and the CCW arc (N/2 hops, from s+N/2)
             merges last, so no path has more than N/2 quantize/dequantize
             pairs (an adder tree over a bandwidth-optimal ring, Patarasuk
             & Yuan 2009). All-gather: CW runs N/2 iterations, CCW N/2-1.

The hop lists are device 0's: every device runs the same lists up to a
rotation of the ring (device d's are device 0's with every shard and
device shifted by d), so the simulator walks device 0's alone, and
`simnet._expand` lays out the other devices' events in emission order.
Each iteration's sends and receives are in the order the simulator emits
them, CW before CCW in both variants; quantized receives interleave
minishard by minishard.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

CW = "cw"
CCW = "ccw"
DIRECTIONS = (CW, CCW)
STEP = {CW: +1, CCW: -1}


class Variant(enum.Enum):
    FULL_LOOP = "full_loop"
    SEMI_LOOP = "semi_loop"


@dataclass(frozen=True)
class Arc:
    """The devices one partial of `shard` visits, in order, carrying `units`."""

    shard: int
    direction: str
    devices: tuple[int, ...]
    units: range
    # Reduce-scatter only: direction of the arc whose owner merge this arc's
    # merge folds into; None merges into the owner's local value.
    after: str | None = None


@dataclass(frozen=True)
class Hop:
    """Hop `it` (1-based) of an arc: devices[it-1] sends to devices[it]."""

    arc: Arc
    it: int
    last: bool  # the arc ends at the receiver


@dataclass(frozen=True)
class Step:
    """One iteration of device 0: its link transfers, then its receive passes,
    each CW before CCW."""

    sends: tuple[Hop, ...]
    recvs: tuple[Hop, ...]


@dataclass(frozen=True)
class Schedule:
    steps: tuple[Step, ...]
    whole: bool  # every arc carries the whole shard (semi loop)

    @property
    def heads(self) -> tuple[Hop, ...]:
        """The first hops of the arcs device 0 heads, CW before CCW."""
        return self.steps[0].sends


def split(variant: Variant, units: int) -> dict[str, range]:
    """The units (minishards or elements) of one shard each direction carries."""
    if variant is Variant.SEMI_LOOP:
        return {CW: range(units), CCW: range(units)}
    h = (units + 1) // 2
    return {CW: range(0, h), CCW: range(h, units)}


def _hop_counts(variant: Variant, n: int, gather: bool) -> dict[str, int]:
    if variant is Variant.FULL_LOOP:
        return {CW: n - 1, CCW: n - 1}
    half = n // 2
    return {CW: half, CCW: half - 1} if gather else {CW: half - 1, CCW: half}


def rs_arcs(variant: Variant, n: int, units: int) -> list[list[Arc]]:
    """Reduce-scatter arcs per shard, in the owner's merge order."""
    parts = split(variant, units)
    hops = _hop_counts(variant, n, gather=False)
    out = []
    for s in range(n):
        arcs = []
        for dn in DIRECTIONS:
            if hops[dn] and parts[dn]:
                # Ends at the owner s after hops[dn] steps of STEP[dn].
                devices = tuple((s - STEP[dn] * (hops[dn] - k)) % n for k in range(hops[dn] + 1))
                after = arcs[-1].direction if variant is Variant.SEMI_LOOP and arcs else None
                arcs.append(Arc(s, dn, devices, parts[dn], after))
        out.append(arcs)
    return out


def ag_arcs(variant: Variant, n: int, units: int) -> list[list[Arc]]:
    """All-gather arcs per shard: the owner forwards its reduced shard."""
    parts = split(variant, units)
    hops = _hop_counts(variant, n, gather=True)
    return [
        [Arc(s, dn, tuple((s + STEP[dn] * k) % n for k in range(hops[dn] + 1)), parts[dn])
         for dn in DIRECTIONS if hops[dn] and parts[dn]]
        for s in range(n)
    ]


def _schedule(variant: Variant, arcs: list[list[Arc]]) -> Schedule:
    """Device 0's hop lists per iteration: the hops it sends, then the hops
    it receives, each CW before CCW."""
    flat = [a for dn in DIRECTIONS for shard in arcs for a in shard if a.direction == dn]
    steps = []
    for t in range(1, max(len(a.devices) for a in flat)):
        hops = [Hop(a, t, t == len(a.devices) - 1) for a in flat if len(a.devices) > t]
        steps.append(Step(tuple(h for h in hops if h.arc.devices[t - 1] == 0),
                          tuple(h for h in hops if h.arc.devices[t] == 0)))
    return Schedule(tuple(steps), whole=variant is Variant.SEMI_LOOP)


def rs_schedule(variant: Variant, n: int, units: int) -> Schedule:
    """Reduce-scatter hop lists; units are minishards if quantized, else elements."""
    return _schedule(variant, rs_arcs(variant, n, units))


def ag_schedule(variant: Variant, n: int, units: int) -> Schedule:
    """All-gather hop lists; units are minishards if quantized, else elements."""
    return _schedule(variant, ag_arcs(variant, n, units))

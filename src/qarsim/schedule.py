"""The ring schedule: which device sends which part of which shard, and when.

This is the one description of the ring that both halves execute:
`collectives` runs every shard's arcs on values, `simnet` runs shard 0's
on time. Every piece of ring index arithmetic lives here.

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

Shard s's arcs are shard 0's with every device shifted by s, in the same
order (CW before CCW) and with the same direction, units, merge order and
length. So in iteration t, for each direction whose arcs have a hop t,
device 0 sends that hop of one shard's arc and receives it of another's,
both shaped like shard 0's arc; the simulator walks shard 0's arcs alone.
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
    """The devices one partial of a shard visits, in order, carrying `units`."""

    direction: str
    devices: tuple[int, ...]
    units: range
    # Reduce-scatter only: direction of the arc whose owner merge this arc's
    # merge folds into; None merges into the owner's local value.
    after: str | None = None


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


def shard_arcs(variant: Variant, n: int, units: int, s: int, gather: bool) -> list[Arc]:
    """Shard s's arcs, CW before CCW: the reduce-scatter's, which end at the
    owner s and are in its merge order, or with `gather` the all-gather's,
    which start at s and forward its reduced shard."""
    parts = split(variant, units)
    hops = _hop_counts(variant, n, gather)
    arcs: list[Arc] = []
    for dn in DIRECTIONS:
        if hops[dn] and parts[dn]:
            head = s if gather else s - STEP[dn] * hops[dn]
            devices = tuple((head + STEP[dn] * k) % n for k in range(hops[dn] + 1))
            after = (arcs[-1].direction if not gather and variant is Variant.SEMI_LOOP and arcs
                     else None)
            arcs.append(Arc(dn, devices, parts[dn], after))
    return arcs


def rs_arcs(variant: Variant, n: int, units: int) -> list[list[Arc]]:
    """Reduce-scatter arcs per shard, in the owner's merge order."""
    return [shard_arcs(variant, n, units, s, gather=False) for s in range(n)]


def ag_arcs(variant: Variant, n: int, units: int) -> list[list[Arc]]:
    """All-gather arcs per shard: the owner forwards its reduced shard."""
    return [shard_arcs(variant, n, units, s, gather=True) for s in range(n)]

"""Ring schedule structure: arcs, the CW/CCW split and their rotation symmetry."""

from dataclasses import replace
from itertools import product

import pytest

from qarsim.schedule import (
    CCW,
    CW,
    STEP,
    Variant,
    ag_arcs,
    rs_arcs,
    shard_arcs,
    split,
)


def test_split_gives_cw_the_larger_half():
    assert split(Variant.FULL_LOOP, 3) == {CW: range(0, 2), CCW: range(2, 3)}
    assert split(Variant.FULL_LOOP, 1) == {CW: range(0, 1), CCW: range(1, 1)}
    assert split(Variant.FULL_LOOP, 2048) == {CW: range(0, 1024), CCW: range(1024, 2048)}
    assert split(Variant.SEMI_LOOP, 3) == {CW: range(3), CCW: range(3)}


@pytest.mark.parametrize("variant", list(Variant))
def test_shard_arcs_are_each_shards_arcs(variant):
    # The simulator builds shard 0's arcs alone, through the function both
    # lists of every shard's arcs map over.
    for n, units in product(range(2, 17), (1, 2, 5, 8)):
        if variant is Variant.SEMI_LOOP and n % 2:
            continue
        rs, ag = rs_arcs(variant, n, units), ag_arcs(variant, n, units)
        for s in range(n):
            assert shard_arcs(variant, n, units, s, gather=False) == rs[s]
            assert shard_arcs(variant, n, units, s, gather=True) == ag[s]


@pytest.mark.parametrize("n", [2, 4, 6, 8])
@pytest.mark.parametrize("variant", list(Variant))
def test_rs_arcs_reach_every_device_and_end_at_the_owner(variant, n):
    for s, arcs in enumerate(rs_arcs(variant, n, 2)):
        for a in arcs:
            assert a.devices[-1] == s
            steps = {(b - a_) % n for a_, b in zip(a.devices, a.devices[1:])}
            assert steps == {STEP[a.direction] % n}
        if variant is Variant.FULL_LOOP:
            # each ring carries its own half through every device
            assert [a.direction for a in arcs] == [CW, CCW]
            assert all(sorted(a.devices) == list(range(n)) for a in arcs)
            assert all(a.after is None for a in arcs)
        else:
            # the two arcs meet at the owner and together visit every device once
            visited = [d for a in arcs for d in a.devices[:-1]]
            assert sorted(visited + [s]) == list(range(n))
            assert [len(a.devices) - 1 for a in arcs] == ([n // 2 - 1] if n > 2 else []) + [n // 2]
            assert arcs[-1].direction == CCW
            assert arcs[-1].after == (CW if n > 2 else None)


@pytest.mark.parametrize("n", [2, 4, 8])
@pytest.mark.parametrize("variant", list(Variant))
def test_ag_arcs_deliver_every_shard_to_every_device(variant, n):
    units = 4
    for s, arcs in enumerate(ag_arcs(variant, n, units)):
        for a in arcs:
            assert a.devices[0] == s
        if variant is Variant.FULL_LOOP:
            for a in arcs:
                assert sorted(a.devices) == list(range(n))
        else:
            reached = [d for a in arcs for d in a.devices[1:]]
            assert sorted(reached + [s]) == list(range(n))
            assert all(a.units == range(units) for a in arcs)


# Units per shard: minishards when the hops are quantized, an even element count when raw.
UNITS = {True: 3, False: 8}


def _hops(arcs, t):
    """Hop t of every shard's arcs, as (shard, direction, sender, receiver)."""
    return sorted((s, a.direction, a.devices[t - 1], a.devices[t])
                  for s, shard in enumerate(arcs) for a in shard if len(a.devices) > t)


@pytest.mark.parametrize("quantized", [False, True])
@pytest.mark.parametrize("variant", list(Variant))
def test_hop_lists_cover_every_hop_once_and_senders_use_each_link_once(variant, quantized):
    # Rotated onto every shard, hop t of shard 0's arcs (what the simulator
    # walks) runs every hop t once; in each iteration every device sends and
    # receives on each of its links at most once, and every device heads
    # exactly one arc per direction.
    n, units = 8, UNITS[quantized]
    for arcs in (rs_arcs(variant, n, units), ag_arcs(variant, n, units)):
        want = sorted((s, a.direction, t) for s, shard in enumerate(arcs) for a in shard
                      for t in range(1, len(a.devices)))
        got = []
        for t in range(1, max(len(a.devices) for a in arcs[0])):
            hops = _hops(arcs, t)
            rotated = sorted((d, dn, (src + d) % n, (dst + d) % n)
                             for _, dn, src, dst in _hops(arcs[:1], t) for d in range(n))
            assert rotated == hops
            for end in (2, 3):
                links = [(h[1], h[end]) for h in hops]
                assert len(links) == len(set(links))
            got += [(s, dn, t) for s, dn, _, _ in hops]
        assert sorted(got) == want
        for dn in {a.direction for a in arcs[0]}:
            assert sorted(a.devices[0] for shard in arcs for a in shard
                          if a.direction == dn) == list(range(n))


@pytest.mark.parametrize("quantized", [False, True])
@pytest.mark.parametrize("variant", list(Variant))
def test_receive_groups_put_cw_before_ccw_in_both_variants(variant, quantized):
    # Device 0 receives CW hops from device n-1 and CCW hops from device 1,
    # at most one of each per iteration; every shard lists its arcs CW
    # first, so the simulator sends and receives shard 0's hops in that order.
    n, units = 8, UNITS[quantized]
    for arcs in (rs_arcs(variant, n, units), ag_arcs(variant, n, units)):
        for shard in arcs:
            assert [a.direction for a in shard] in ([CW], [CCW], [CW, CCW])
        for t in range(1, max(len(a.devices) for a in arcs[0])):
            recvs = [(dn, src) for _, dn, src, dst in _hops(arcs, t) if dst == 0]
            assert len({dn for dn, _ in recvs}) == len(recvs)
            for dn, src in recvs:
                assert src == (n - 1 if dn == CW else 1)


@pytest.mark.parametrize("quantized", [False, True])
@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("n", [2, 4, 6, 8, 16])
def test_device_0s_hop_lists_rotate_onto_every_hop(n, variant, quantized):
    # The simulator's premise: it walks shard 0's arcs as device 0's hops.
    # Shard s's arcs are shard 0's with every device shifted by s, and in
    # each iteration every device sends on each of its links at most once.
    # So device 0 sends and receives exactly one hop t in each direction
    # whose arcs have one, shaped like shard 0's, and device d's hops are
    # device 0's shifted by d: the n rotations run every hop once.
    units = UNITS[quantized]
    for arcs in (rs_arcs(variant, n, units), ag_arcs(variant, n, units)):
        assert [a.direction for a in arcs[0]] in ([CW], [CCW], [CW, CCW])
        for s, shard in enumerate(arcs):
            assert shard == [replace(a, devices=tuple((d + s) % n for d in a.devices))
                             for a in arcs[0]]
        for t in range(1, max(len(a.devices) for a in arcs[0])):
            hops = [(a.direction, a.devices[t - 1], a.devices[t])
                    for shard in arcs for a in shard if len(a.devices) > t]
            assert all((dst - src) % n == STEP[dn] % n for dn, src, dst in hops)
            links = [(dn, src) for dn, src, _ in hops]
            assert len(links) == len(set(links))
            live = sorted(a.direction for a in arcs[0] if len(a.devices) > t)
            assert sorted(dn for dn, src, _ in hops if src == 0) == live
            assert sorted(dn for dn, _, dst in hops if dst == 0) == live

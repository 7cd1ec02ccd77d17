"""Ring schedule structure: arcs, the CW/CCW split and the hop lists."""

import pytest

from qarsim.schedule import (
    CCW,
    CW,
    STEP,
    Variant,
    ag_arcs,
    ag_schedule,
    rs_arcs,
    rs_schedule,
    split,
)


def test_split_gives_cw_the_larger_half():
    assert split(Variant.FULL_LOOP, 3) == {CW: range(0, 2), CCW: range(2, 3)}
    assert split(Variant.FULL_LOOP, 1) == {CW: range(0, 1), CCW: range(1, 1)}
    assert split(Variant.FULL_LOOP, 2048) == {CW: range(0, 1024), CCW: range(1024, 2048)}
    assert split(Variant.SEMI_LOOP, 3) == {CW: range(3), CCW: range(3)}


@pytest.mark.parametrize("n", [2, 4, 6, 8])
@pytest.mark.parametrize("variant", list(Variant))
def test_rs_arcs_reach_every_device_and_end_at_the_owner(variant, n):
    for s, arcs in enumerate(rs_arcs(variant, n, 2)):
        for a in arcs:
            assert a.shard == s and a.devices[-1] == s
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


@pytest.mark.parametrize("quantized", [False, True])
@pytest.mark.parametrize("variant", list(Variant))
def test_hop_lists_cover_every_hop_once_and_senders_use_each_link_once(variant, quantized):
    # Rotated onto every device, device 0's sends run every hop once; in each
    # iteration every device sends on each of its links at most once, and the
    # hops received are the hops sent.
    n, units = 8, UNITS[quantized]
    for sch, arcs in ((rs_schedule(variant, n, units), rs_arcs(variant, n, units)),
                      (ag_schedule(variant, n, units), ag_arcs(variant, n, units))):
        want = sorted((a.shard, a.direction, t) for shard in arcs for a in shard
                      for t in range(1, len(a.devices)))
        got = []
        for t, st in enumerate(sch.steps, 1):
            assert all(h.it == t for h in st.sends + st.recvs)
            sent, received = (
                sorted(((h.arc.shard + d) % n, h.arc.direction, (h.arc.devices[t - 1] + d) % n)
                       for h in hops for d in range(n))
                for hops in (st.sends, st.recvs))
            links = [(sender, dn) for _, dn, sender in sent]
            assert len(links) == len(set(links))
            assert received == sent
            got += [(shard, dn, t) for shard, dn, _ in sent]
        assert sorted(got) == want
        assert all(h.it == 1 and h.arc.devices[0] == 0 for h in sch.heads)


@pytest.mark.parametrize("quantized", [False, True])
@pytest.mark.parametrize("variant", list(Variant))
def test_receive_groups_put_cw_before_ccw_in_both_variants(variant, quantized):
    # Device 0 receives CW hops from device n-1 and CCW hops from device 1,
    # at most one of each per iteration, CW first; its sends are ordered alike.
    n, units = 8, UNITS[quantized]
    for sch in (rs_schedule(variant, n, units), ag_schedule(variant, n, units)):
        for t, st in enumerate(sch.steps, 1):
            for hops in (st.sends, st.recvs):
                assert [h.arc.direction for h in hops] in ([], [CW], [CCW], [CW, CCW])
            for h in st.recvs:
                assert h.arc.devices[t] == 0
                assert h.arc.devices[t - 1] == (n - 1 if h.arc.direction == CW else 1)


@pytest.mark.parametrize("quantized", [False, True])
@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("n", [2, 4, 6, 8, 16])
def test_device_0s_hop_lists_rotate_onto_every_hop(n, variant, quantized):
    # The simulator's premise: device d runs device 0's hop lists with every
    # shard and device shifted by d, and together the n rotations run every
    # hop of every arc once.
    units = UNITS[quantized]
    for sch, arcs in ((rs_schedule(variant, n, units), rs_arcs(variant, n, units)),
                      (ag_schedule(variant, n, units), ag_arcs(variant, n, units))):
        arc_of = {(a.shard, a.direction): a for shard in arcs for a in shard}
        want = sorted((a.shard, a.direction, t) for a in arc_of.values()
                      for t in range(1, len(a.devices)))
        sent, received = [], []
        for t, st in enumerate(sch.steps, 1):
            for hops, at, rotated in ((st.sends, t - 1, sent), (st.recvs, t, received)):
                assert [h.arc.direction for h in hops] in ([], [CW], [CCW], [CW, CCW])
                for h in hops:
                    a = h.arc
                    assert h.it == t and a.devices[at] == 0
                    assert h.last == (t == len(a.devices) - 1)
                    for d in range(n):
                        b = arc_of[((a.shard + d) % n, a.direction)]
                        assert b.devices == tuple((x + d) % n for x in a.devices)
                        assert (b.units, b.after) == (a.units, a.after)
                        rotated.append((b.shard, b.direction, t))
        assert sorted(sent) == want and sorted(received) == want

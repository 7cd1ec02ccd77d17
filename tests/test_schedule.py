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
    n, units = 8, UNITS[quantized]
    for sch, arcs in ((rs_schedule(variant, n, units), rs_arcs(variant, n, units)),
                      (ag_schedule(variant, n, units), ag_arcs(variant, n, units))):
        want = {(a.shard, a.direction, t) for shard in arcs for a in shard
                for t in range(1, len(a.devices))}
        got = [(h.arc.shard, h.arc.direction, h.it) for st in sch.steps for h in st.sends]
        assert sorted(got) == sorted(want)
        for t, st in enumerate(sch.steps, 1):
            assert all(h.it == t for h in st.sends)
            links = [(h.sender, h.arc.direction) for h in st.sends]
            assert len(links) == len(set(links))
            received = [h for group in st.recvs for h in group]
            assert sorted(received, key=id) == sorted(st.sends, key=id)
        assert [h.it for h in sch.heads] == [1] * len(sch.heads)
        assert [h.sender for h in sch.heads] == sorted(h.sender for h in sch.heads)


@pytest.mark.parametrize("quantized", [False, True])
@pytest.mark.parametrize("variant", list(Variant))
def test_receive_groups_put_cw_before_ccw_in_both_variants(variant, quantized):
    n, units = 8, UNITS[quantized]
    for sch in (rs_schedule(variant, n, units), ag_schedule(variant, n, units)):
        for st in sch.steps:
            links = [(h.sender, h.arc.direction == CCW) for h in st.sends]
            assert links == sorted(links)
            receivers = [g[0].receiver for g in st.recvs]
            assert receivers == sorted(set(receivers))
            for group in st.recvs:
                assert {h.receiver for h in group} == {group[0].receiver}
                assert [h.arc.direction for h in group] in ([CW], [CCW], [CW, CCW])

import numpy as np
import pytest

from helpers import HD, LH, LW, make_wban
from oracle import Interval, active_interferers, build_schedule, overlap_fraction
from wbansim.channel import BodyLocation
from wbansim.network import (MacConfig, NodeSpec, WbanConfig, overlap_lengths,
                             superframe_layout)
from wbansim.seeding import substream

MAC = MacConfig(n_coexisting=2, slot_len_ms=60.0, beacon_frac=0.1)


# -------------------------------------------------------------- configuration

def test_mac_config_timing():
    assert MAC.cycle_ms == 120.0
    assert MacConfig(4, 50.0).cycle_ms == 200.0


@pytest.mark.parametrize("kwargs", [
    dict(n_coexisting=0),
    dict(slot_len_ms=0.0),
    dict(slot_len_ms=1e308),  # finite, but the cycle is not
    dict(beacon_frac=1.0),
    dict(beacon_frac=-0.1),
])
def test_mac_config_rejects(kwargs):
    with pytest.raises(ValueError):
        MacConfig(**{**dict(n_coexisting=2, slot_len_ms=60.0), **kwargs})


def test_wban_config_validation():
    wban = make_wban(sensor_locs=(HD, LW))
    with pytest.raises(ValueError, match="distinct locations"):
        WbanConfig(1, wban.hub, (NodeSpec(LH), NodeSpec(LH)), wban.sensors)
    with pytest.raises(ValueError, match="chest, left hip and right hip"):
        WbanConfig(1, NodeSpec(HD), wban.relays, wban.sensors)
    with pytest.raises(ValueError, match="differ from hub and relay"):
        make_wban(sensor_locs=(LH,))
    with pytest.raises(ValueError, match="distinct"):
        make_wban(sensor_locs=(HD, HD))
    with pytest.raises(ValueError, match="one to three"):
        make_wban(sensor_locs=(HD, LW, BodyLocation.BACK, BodyLocation.LEFT_ANKLE))


# -------------------------------------------------------------------- layout

def test_layout_single_sensor():
    wban = make_wban()
    layout = superframe_layout(wban, MAC)
    assert layout.transmissions[0] == (0.0, 6.0, wban.hub)
    assert layout.broadcast == ((6.0, 27.0),)
    assert layout.forward == ((33.0, 27.0),)
    assert len(layout.transmissions) == 3


def test_layout_three_sensors_partitions_the_slot():
    wban = make_wban(sensor_locs=(HD, LW, BodyLocation.BACK))
    layout = superframe_layout(wban, MAC)
    assert layout.broadcast == ((6.0, 9.0), (24.0, 9.0), (42.0, 9.0))
    assert layout.forward == ((15.0, 9.0), (33.0, 9.0), (51.0, 9.0))
    # Sub-intervals tile the slot without gaps.
    spans = sorted([layout.transmissions[0][:2], *layout.broadcast, *layout.forward])
    edges = [0.0]
    for start, dur in spans:
        assert start == pytest.approx(edges[-1])
        edges.append(start + dur)
    assert edges[-1] == pytest.approx(MAC.slot_len_ms)
    # The hub's beacon, then each sensor's broadcast and its forward, whose
    # power attribution alternates between the relays.
    hub, (r1, r2), (s1, s2, s3) = wban.hub, wban.relays, wban.sensors
    nodes = [node for _, _, node in layout.transmissions]
    assert all(a is b for a, b in zip(nodes, [hub, s1, r1, s2, r2, s3, r1], strict=True))


def test_build_schedule_wraps_modulo_cycle():
    schedule = build_schedule(make_wban(), MAC, offset_ms=100.0)
    assert schedule.broadcast_interval(0) == Interval(106.0, 27.0)
    assert schedule.forward_interval(0) == Interval(13.0, 27.0)
    with pytest.raises(ValueError, match="outside"):
        build_schedule(make_wban(), MAC, offset_ms=120.0)
    with pytest.raises(ValueError, match="no broadcast"):
        schedule.broadcast_interval(1)


# -------------------------------------------------------------------- overlap

def test_overlap_fraction_fixtures():
    cycle = 120.0
    assert overlap_fraction(Interval(0.0, 10.0), Interval(5.0, 10.0), cycle) == 0.5
    assert overlap_fraction(Interval(0.0, 9.0), Interval(115.0, 10.0), cycle) \
        == pytest.approx(5.0 / 9.0)
    assert overlap_fraction(Interval(115.0, 10.0), Interval(0.0, 9.0), cycle) == 0.5
    assert overlap_fraction(Interval(0.0, 10.0), Interval(50.0, 10.0), cycle) == 0.0
    assert overlap_fraction(Interval(20.0, 5.0), Interval(10.0, 30.0), cycle) == 1.0
    assert overlap_fraction(Interval(7.0, 13.0), Interval(7.0, 13.0), cycle) == 1.0
    # Half-open intervals: touching endpoints do not collide.
    assert overlap_fraction(Interval(6.0, 27.0), Interval(0.0, 6.0), cycle) == 0.0


def test_overlap_is_symmetric_in_length():
    rng = np.random.default_rng(5)
    cycle = 120.0
    for _ in range(200):
        a = Interval(rng.uniform(0, cycle), rng.uniform(0.1, 60))
        b = Interval(rng.uniform(0, cycle), rng.uniform(0.1, 60))
        ab = overlap_fraction(a, b, cycle) * a.dur_ms
        ba = overlap_fraction(b, a, cycle) * b.dur_ms
        assert ab == pytest.approx(ba, abs=1e-9)


def test_overlap_lengths_vectorizes():
    deltas = np.array([5.0, 50.0, 115.0])
    lengths = overlap_lengths(deltas, 10.0, 10.0, 120.0)
    np.testing.assert_allclose(lengths, [5.0, 0.0, 5.0])


def test_collision_probability_matches_analytic():
    # A foreign sub-interval of length l_b at a uniform offset collides
    # with a victim sub-interval of length l_a w.p. (l_a + l_b) / cycle.
    cycle, la, lb = 120.0, 27.0, 6.0
    victim = Interval(40.0, la)
    starts = substream(123, "collisions").uniform(0.0, cycle, 200_000)
    fractions = overlap_lengths((starts - victim.start_ms) % cycle, la, lb, cycle)
    assert np.mean(fractions > 0) == pytest.approx((la + lb) / cycle, abs=0.005)


# ---------------------------------------------------------------- interferers

def test_active_interferers_reports_nodes_and_fractions():
    victim = build_schedule(make_wban(1), MAC, offset_ms=0.0)
    other = make_wban(2)
    foreign = build_schedule(other, MAC, offset_ms=0.0)
    hits = active_interferers(victim.broadcast_interval(0), [foreign], MAC.cycle_ms)
    # Same offset: only the foreign sensor broadcast collides, fully.
    assert len(hits) == 1
    assert hits[0].subject == 2
    assert hits[0].node is other.sensors[0]
    assert hits[0].fraction == pytest.approx(1.0)

    shifted = build_schedule(other, MAC, offset_ms=27.0)
    hits = active_interferers(victim.broadcast_interval(0), [shifted], MAC.cycle_ms)
    # Victim broadcast [6, 33): foreign beacon [27, 33) and broadcast [33, 60).
    assert [hit.fraction for hit in hits if hit.node is other.hub] \
        == [pytest.approx(6.0 / 27.0)]
    assert not any(hit.node is other.sensors[0] for hit in hits)


def test_active_interferers_ignores_own_network():
    victim = build_schedule(make_wban(1), MAC, offset_ms=0.0)
    hits = active_interferers(victim.broadcast_interval(0), [], MAC.cycle_ms)
    assert hits == []

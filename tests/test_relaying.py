import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import constant_set, make_wban
from oracle import build_schedule, compute_sinr, evaluate_superframe, select_relay
from wbansim.network import MacConfig
from wbansim.relaying import NoiseModel, cooperative_sinr

NOISE = NoiseModel(-100.0)
MAC = MacConfig(n_coexisting=2, slot_len_ms=60.0, beacon_frac=0.1)


# ----------------------------------------------------------------------- sinr

def test_sinr_fixture():
    # 0 dBm through -60 dB against -100 dBm noise plus one full-overlap
    # interferer at -80 dB: 1e-6 / (1e-10 + 1e-8) mW.
    value = compute_sinr(0.0, -60.0, NOISE, [(0.0, -80.0, 1.0)])
    assert value == pytest.approx(1e-6 / (1e-10 + 1e-8), rel=1e-9)


def test_sinr_without_interference_is_snr():
    assert compute_sinr(0.0, -60.0, NOISE) == pytest.approx(1e4, rel=1e-12)


def test_sinr_overlap_fraction_scales_interference():
    half = compute_sinr(0.0, -60.0, NOISE, [(0.0, -80.0, 0.5)])
    assert half == pytest.approx(1e-6 / (1e-10 + 0.5e-8), rel=1e-12)
    grazing = compute_sinr(0.0, -60.0, NOISE, [(0.0, -80.0, 0.0)])
    assert grazing == pytest.approx(1e4, rel=1e-12)


def test_sinr_interferers_accumulate():
    two = compute_sinr(0.0, -60.0, NOISE, [(0.0, -80.0, 1.0), (0.0, -80.0, 1.0)])
    assert two == pytest.approx(1e-6 / (1e-10 + 2e-8), rel=1e-12)


def test_sinr_muted_signal_is_zero():
    assert compute_sinr(-math.inf, -60.0, NOISE) == 0.0
    # A muted interferer contributes nothing.
    assert compute_sinr(0.0, -60.0, NOISE, [(-math.inf, -80.0, 1.0)]) \
        == pytest.approx(1e4, rel=1e-12)


def test_sinr_rejects_bad_inputs():
    with pytest.raises(ValueError):
        compute_sinr(math.nan, -60.0, NOISE)
    with pytest.raises(ValueError):
        compute_sinr(0.0, math.inf, NOISE)
    with pytest.raises(ValueError):
        compute_sinr(0.0, -60.0, NOISE, [(0.0, -80.0, 1.5)])
    with pytest.raises(ValueError):
        compute_sinr(0.0, -60.0, NOISE, [(0.0, math.nan, 1.0)])


# ------------------------------------------------------------------ selection

def test_select_relay_picks_stronger_bottleneck():
    assert select_relay(10.0, 4.0, 6.0, 5.0) == (2, 5.0)
    assert select_relay(10.0, 8.0, 6.0, 5.0) == (1, 8.0)


def test_select_relay_tie_goes_to_relay_one():
    assert select_relay(5.0, 5.0, 5.0, 5.0) == (1, 5.0)
    assert select_relay(7.0, 3.0, 3.0, 9.0) == (1, 3.0)


def test_select_relay_against_brute_force():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        v = rng.lognormal(mean=0.0, sigma=2.0, size=4)
        relay, nu = select_relay(*v)
        mins = (min(v[0], v[1]), min(v[2], v[3]))
        expected = 1 if mins[0] >= mins[1] else 2
        assert relay == expected
        assert nu == mins[expected - 1]


def test_select_relay_rejects_degenerate_hops():
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            select_relay(bad, 1.0, 1.0, 1.0)


def coop(direct, hops):
    """Kernel on one packet; hops is (sr1, r1h, sr2, r2h) as in select_relay."""
    return cooperative_sinr(direct, (hops[0], hops[2]), (hops[1], hops[3]))


def test_end_to_end_keeps_better_copy():
    # Relay 1's branch (bottleneck 5) is selected; the hub keeps the better copy.
    assert coop(2.0, (5.0, 5.0, 1.0, 1.0)) == 5.0
    assert coop(5.0, (2.0, 2.0, 1.0, 1.0)) == 5.0
    rng = np.random.default_rng(23)
    direct, hops = rng.lognormal(size=500), rng.lognormal(size=(4, 500))
    assert np.all(coop(direct, hops) >= direct)


# ----------------------------------------------------------------- properties

sinrs = st.floats(min_value=1e-6, max_value=1e6)


@st.composite
def packets(draw):
    """(direct, (sr1, r1h, sr2, r2h)); relay 2 is often a copy of relay 1, an exact tie."""
    direct = draw(sinrs)
    sr1, r1h = draw(sinrs), draw(sinrs)
    sr2, r2h = draw(st.one_of(st.tuples(sinrs, sinrs), st.just((sr1, r1h))))
    return direct, (sr1, r1h, sr2, r2h)


@given(packets())
def test_kernel_matches_scalar_selection(packet):
    direct, hops = packet
    _, relay_min = select_relay(*hops)
    assert coop(direct, hops) == max(direct, relay_min)


@given(st.lists(packets(), min_size=1, max_size=20))
def test_kernel_never_loses_to_the_direct_link(batch):
    direct = np.array([d for d, _ in batch])
    hops = np.array([h for _, h in batch]).T
    assert np.all(coop(direct, hops) >= direct)


@given(packets())
def test_swapping_relays_matters_only_on_ties(packet):
    # Ties included, the order of the relays never changes the result: a tie
    # picks between equal bottlenecks.
    direct, (sr1, r1h, sr2, r2h) = packet
    assert coop(direct, (sr1, r1h, sr2, r2h)) == coop(direct, (sr2, r2h, sr1, r1h))


@given(sinrs, sinrs, sinrs)
def test_zero_hops_give_the_direct_sinr(direct, sr1, sr2):
    # A muted relay forwards at zero SINR, whatever it heard from the sensor.
    assert coop(direct, (sr1, 0.0, sr2, 0.0)) == direct
    assert coop(direct, (0.0, 0.0, 0.0, 0.0)) == direct


# ----------------------------------------------------------------- superframe

def victim_gains():
    return {
        "1:HD->1:C": -60.0,
        "1:HD->1:LH": -50.0,
        "1:HD->1:RH": -40.0,
        "1:LH->1:C": -55.0,
        "1:RH->1:C": -70.0,
    }


def test_superframe_without_interference():
    wban = make_wban()
    channels = constant_set(victim_gains())
    schedules = [build_schedule(wban, MAC, 0.0)]
    (decision,) = evaluate_superframe(wban, schedules, channels, NOISE, epoch=0)
    assert decision.nu_direct == pytest.approx(1e4, rel=1e-12)
    assert decision.nu_sr == pytest.approx((1e5, 1e6), rel=1e-12)
    assert decision.nu_rh == pytest.approx((10.0 ** 4.5, 1e3), rel=1e-12)
    assert decision.chosen_relay == 1
    assert decision.single == decision.nu_direct
    assert decision.cooperative == pytest.approx(10.0 ** 4.5, rel=1e-12)


def test_superframe_with_aligned_interferer():
    # Both networks at offset 0: the foreign sensor broadcast fully
    # covers the victim broadcast, the foreign forward sub-slot fully
    # covers the victim forward sub-slot.
    victim = make_wban(1)
    foreign = make_wban(2)
    gains = victim_gains() | {
        "2:LH->1:C": -70.0,
        "2:LH->1:LH": -80.0,
        "2:LH->1:RH": -90.0,
    }
    channels = constant_set(gains)
    schedules = [build_schedule(victim, MAC, 0.0), build_schedule(foreign, MAC, 0.0)]
    (decision,) = evaluate_superframe(victim, schedules, channels, NOISE, epoch=0)
    assert decision.nu_direct == pytest.approx(1e-6 / (1e-10 + 1e-7), rel=1e-12)
    assert decision.nu_sr[0] == pytest.approx(1e-5 / (1e-10 + 1e-8), rel=1e-12)
    assert decision.nu_sr[1] == pytest.approx(1e-4 / (1e-10 + 1e-9), rel=1e-12)
    assert decision.nu_rh[0] == pytest.approx(10.0 ** -5.5 / (1e-10 + 1e-7), rel=1e-12)
    assert decision.nu_rh[1] == pytest.approx(1e-7 / (1e-10 + 1e-7), rel=1e-12)
    assert decision.chosen_relay == 1
    assert decision.cooperative == pytest.approx(decision.nu_min[0], rel=1e-12)
    assert decision.cooperative > decision.single


def test_superframe_muted_relays_reduce_to_single_link():
    wban = make_wban(relay_power=-math.inf)
    channels = constant_set(victim_gains())
    schedules = [build_schedule(wban, MAC, 0.0)]
    (decision,) = evaluate_superframe(wban, schedules, channels, NOISE, epoch=0)
    assert decision.nu_rh == (0.0, 0.0)
    assert decision.cooperative == decision.single == decision.nu_direct


def test_superframe_needs_a_victim_schedule():
    wban = make_wban(1)
    channels = constant_set(victim_gains())
    with pytest.raises(ValueError, match="no schedule for subject 1"):
        evaluate_superframe(wban, [build_schedule(make_wban(2), MAC, 0.0)],
                            channels, NOISE, epoch=0)

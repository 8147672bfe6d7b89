import math
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import HD, LW, make_wban, sinr_blocks
from oracle import (aggregate_reference, assemble_reference, build_schedule,
                    evaluate_superframe, interference_weights_reference,
                    sinr_series_reference)
from wbansim import engine
from wbansim.channel import (BodyLocation, ChannelTrace, LinkId, MissingLinkError,
                             SyntheticChannelParams, downsample, fspl_db, load_trace,
                             save_trace)
from wbansim.engine import (ConfigError, CsvChannelSource, ExperimentConfig,
                            RadioConfig, SyntheticChannelSource, assemble_channels,
                            required_source_links, run, sweep)
from wbansim.metrics import SinrSeries, empirical_outage, lcr_curve, threshold_at_outage
from wbansim.network import MacConfig, superframe_layout
from wbansim.seeding import substream


def base_config(**kw):
    defaults = dict(
        wbans=(make_wban(1), make_wban(2)),
        victim_subject=1,
        interferer_subjects=(2,),
        epochs=40,
        channels=SyntheticChannelSource(duration_ms=120.0 * 200),
        master_seed=3,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def simulate_pair(config):
    """The (victim, interferers) pair that simulate runs."""
    return config.victim_subject, config.interferer_subjects


def mw(gains_db):
    """Gains in dB as linear power, by the expression that assembly converts with."""
    return 10.0 ** (gains_db / 10.0)


def flat_source(on_db=-55.0, inter_db=-70.0, n=200):
    return SyntheticChannelSource(duration_ms=120.0 * n,
                                  on_body=SyntheticChannelParams(on_db, 0.0, 240.0),
                                  inter_body=SyntheticChannelParams(inter_db, 0.0, 500.0))


# ----------------------------------------------------------------- validation

@pytest.mark.parametrize("kwargs,match", [
    (dict(wbans=(make_wban(1), make_wban(1))), "duplicate subject"),
    (dict(victim_subject=9), "no wban defined"),
    (dict(interferer_subjects=(1,)), "cannot interfere"),
    (dict(sweep_victims=(7,)), "no wban defined"),
    (dict(epochs=0), "epochs"),
    (dict(repetitions=0), "repetitions"),
    (dict(wbans=(make_wban(1, sensor_power=-math.inf), make_wban(2))),
     r"^wbans\[0\]\.sensors\[0\]\.tx_power_dbm: the sensors of victim subject 1 must"),
    (dict(lcr_ref_threshold_db=math.nan), "lcr_ref_threshold_db must be finite"),
    (dict(start_indices=()), "start_indices lists 0 entries but repetitions is 1"),
    (dict(radio=RadioConfig(link_distances_m={})), r"^radio\.link_distances_m: no distance"),
    (dict(repetitions=3, start_indices=(0, 1)),
     "start_indices lists 2 entries but repetitions is 3"),
    (dict(wbans=(make_wban(1), make_wban(2), make_wban(3)), interferer_subjects=(2, 3, 2)),
     "^interferers: duplicate subject ids"),
    (dict(sweep_victims=(1, 1)), "^sweep.victims: duplicate subject ids"),
    (dict(sweep_interferers=(2, 2)), "^sweep.interferers: duplicate subject ids"),
    (dict(repetitions=2, start_indices=(0, -3)), r"^start_indices\[1\] must be >= 0, got -3$"),
])
def test_config_validation(kwargs, match):
    with pytest.raises(ConfigError, match=match):
        base_config(**kwargs)


def test_epoch_period_defaults_to_the_cycle():
    assert base_config().epoch_period_ms == 120.0
    assert base_config(mac=MacConfig(4, 60.0)).epoch_period_ms == 240.0


def test_radio_config_lookup():
    radio = RadioConfig()
    assert radio.distance_m(BodyLocation.LEFT_HIP, BodyLocation.CHEST) == 0.40
    assert radio.distance_m(BodyLocation.RIGHT_HIP, BodyLocation.LEFT_HIP) == 0.30
    with pytest.raises(ConfigError, match="C-RH"):
        radio.distance_m(BodyLocation.CHEST, BodyLocation.RIGHT_HIP)


# -------------------------------------------------------------- trace sourcing

def test_required_source_links():
    links = {str(l) for l in required_source_links(base_config(), 1, (2,))}
    assert links == {"1:HD->1:C", "1:HD->1:LH", "1:HD->1:RH",
                     "1:LH->1:C", "1:RH->1:C", "1:LH->1:RH",
                     "2:LH->1:LH"}


def test_assemble_overlays_interference_channels(tmp_path):
    values = {"1:HD->1:C": -60.0, "1:HD->1:LH": -50.0, "1:HD->1:RH": -40.0,
              "1:LH->1:C": -55.0, "1:RH->1:C": -70.0, "1:LH->1:RH": -52.0,
              "2:LH->1:LH": -72.0}
    for k, (text, gain) in enumerate(values.items()):
        save_trace(ChannelTrace(LinkId.parse(text), 120.0, np.full(8, gain)),
                   tmp_path / f"t{k}.csv")
    config = base_config(channels=CsvChannelSource(tmp_path), epochs=8)
    channels = assemble_channels(config, *simulate_pair(config))

    # Receivers in the order hub (C), relay 1 (LH), relay 2 (RH), in mW; every
    # node transmits at 0 dBm, 1 mW.
    to_chest, base, to_rh = channels.foes[2]
    np.testing.assert_array_equal(base, mw(np.full(8, -72.0)))  # pass-through
    np.testing.assert_allclose(to_chest, mw(-72.0 + (-55.0 + fspl_db(0.40, 2.36e9))),
                               rtol=1e-12)
    np.testing.assert_allclose(to_rh, mw(-72.0 + (-52.0 + fspl_db(0.30, 2.36e9))), rtol=1e-12)
    np.testing.assert_array_equal(channels.sensors[:, 0],
                                  mw(np.full((3, 8), [[-60.0], [-50.0], [-40.0]])))
    np.testing.assert_array_equal(channels.relays, mw(np.full((2, 8), [[-55.0], [-70.0]])))


def test_csv_source_reads_each_file_once(tmp_path, monkeypatch):
    links = required_source_links(base_config(), 1, (2,))
    for k, link in enumerate(links):
        save_trace(ChannelTrace(link, 120.0, np.full(8, -60.0 - k)), tmp_path / f"t{k}.csv")
    calls = []
    monkeypatch.setattr(engine, "load_trace",
                        lambda *args: calls.append(args) or load_trace(*args))
    channels = assemble_channels(base_config(channels=CsvChannelSource(tmp_path), epochs=8),
                                 1, (2,))
    assert len(calls) == len(links)
    # The files hold, in link order, the sensor's three hops, the relays' hops to
    # the hub, the donor 1:LH->1:RH and the base 2:LH->1:LH.
    np.testing.assert_array_equal(channels.sensors[:, 0],
                                  mw(np.full((3, 8), [[-60.0], [-61.0], [-62.0]])))
    np.testing.assert_array_equal(channels.relays, mw(np.full((2, 8), [[-63.0], [-64.0]])))
    np.testing.assert_array_equal(channels.foes[2][1], mw(np.full(8, -66.0)))


def test_assemble_downsamples_to_epoch_period(tmp_path):
    links = [str(l) for l in required_source_links(base_config(), 1, (2,))]
    for k, text in enumerate(links):
        save_trace(ChannelTrace(LinkId.parse(text), 40.0, np.arange(24.0)),
                   tmp_path / f"t{k}.csv")
    channels = assemble_channels(base_config(channels=CsvChannelSource(tmp_path),
                                             epochs=8), 1, (2,))
    np.testing.assert_array_equal(channels.sensors[0, 0], mw(np.arange(0.0, 24.0, 3.0)))


def test_assemble_needs_a_distance_for_the_anchor_pairs():
    # The config that would need the missing C-RH distance does not load.
    with pytest.raises(ConfigError, match=r"radio\.link_distances_m: .* C-RH"):
        base_config(interferer_source_location=BodyLocation.RIGHT_HIP)
    radio = RadioConfig(link_distances_m={("C", "RH"): 0.3, ("LH", "RH"): 0.3})
    channels = assemble_channels(
        base_config(interferer_source_location=BodyLocation.RIGHT_HIP, radio=radio), 1, (2,))
    assert channels.foes[2].shape == (3, 200)


def test_missing_trace_is_reported(tmp_path):
    config = base_config(channels=CsvChannelSource(tmp_path))
    with pytest.raises(Exception, match="no channel trace"):
        assemble_channels(config, *simulate_pair(config))
    # Every missing link is named in one error.
    present, *missing = required_source_links(config, *simulate_pair(config))
    save_trace(ChannelTrace(present, 120.0, np.full(8, -60.0)), tmp_path / "t.csv")
    with pytest.raises(MissingLinkError) as error:
        assemble_channels(replace(config, channels=CsvChannelSource(tmp_path)),
                          *simulate_pair(config))
    named = str(error.value)
    assert all(f"link {link} in" in named for link in missing)
    assert f"link {present} in" not in named


def _assert_roles_equal_the_reference(config, subject, interferers):
    """The role arrays hold the bytes of the reference's traces, each cut to its window and
    converted to mW: a received power for the sensors and relays, a gain for the foes."""
    got = assemble_channels(config, subject, interferers)
    want = assemble_reference(config, subject, interferers)
    victim, anchor = config.wban(subject), config.interferer_source_location
    receivers = [victim.hub.location] + [relay.location for relay in victim.relays]
    n = min(trace.n_samples for link, trace in want.items() if link.is_intra)
    assert got.sensors.shape == (3, len(victim.sensors), n)
    assert got.relays.shape == (2, n)
    for r, rx in enumerate(receivers):
        for i, sensor in enumerate(victim.sensors):
            link = LinkId(subject, sensor.location, subject, rx)
            power = sensor.tx_power_mw * mw(want[link].samples[:n])
            assert got.sensors[r, i].tobytes() == power.tobytes(), link
    for k, relay in enumerate(victim.relays):
        link = LinkId(subject, relay.location, subject, receivers[0])
        power = relay.tx_power_mw * mw(want[link].samples[:n])
        assert got.relays[k].tobytes() == power.tobytes(), link
    assert list(got.foes) == list(interferers)
    for u in interferers:
        m = min(trace.n_samples for link, trace in want.items() if link.tx_subject == u)
        assert got.foes[u].shape == (3, m)
        for r, rx in enumerate(receivers):
            link = LinkId(u, anchor, subject, rx)
            assert got.foes[u][r].tobytes() == mw(want[link].samples[:m]).tobytes(), link


@pytest.mark.parametrize("anchor", [BodyLocation.LEFT_HIP, BodyLocation.CHEST, HD])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_role_arrays_equal_the_reference_assembly(tmp_path, anchor, seed):
    # HD is a sensor's location and no receiver's: every interference channel is overlaid.
    radio = RadioConfig(link_distances_m={("C", "LH"): 0.40, ("LH", "RH"): 0.30,
                                          ("C", "RH"): 0.35, ("C", "HD"): 0.50,
                                          ("HD", "LH"): 0.70, ("HD", "RH"): 0.75})
    # Powers other than 1 mW, so that a sensor's and a relay's count.
    victim = make_wban(1, sensor_locs=(HD, LW), sensor_power=3.0, relay_power=-2.0)
    config = base_config(wbans=(victim, make_wban(2), make_wban(3)),
                         interferer_subjects=(2, 3), interferer_source_location=anchor,
                         radio=radio, master_seed=seed)
    _assert_roles_equal_the_reference(config, 1, (2, 3))
    # The same traces from CSV files of unequal lengths.
    rng = np.random.default_rng(seed)
    for k, link in enumerate(engine.source_links(config)):
        samples = config.channels.trace(link, engine.channel_seed(config)).samples
        save_trace(ChannelTrace(link, 120.0, samples[:rng.integers(150, 201)]),
                   tmp_path / f"t{k}.csv")
    _assert_roles_equal_the_reference(replace(config, channels=CsvChannelSource(tmp_path)),
                                      1, (2, 3))


def test_a_short_donor_trace_bounds_the_window(tmp_path):
    # The donor 1:LH->1:RH feeds only the overlays, yet its 100 epochs bound every run.
    config = base_config(epochs=150)
    seed = engine.channel_seed(config)
    donor = LinkId.parse("1:LH->1:RH")
    for k, link in enumerate(required_source_links(config, *simulate_pair(config))):
        samples = config.channels.trace(link, seed).samples
        save_trace(ChannelTrace(link, 120.0, samples[:100] if link == donor else samples),
                   tmp_path / f"t{k}.csv")
    csv_config = replace(config, channels=CsvChannelSource(tmp_path))
    for interferers in ((2,), ()):
        with pytest.raises(ConfigError, match=r"^epochs: each run needs 150 epochs but the "
                                              r"channel traces cover 100$"):
            run(replace(csv_config, interferer_subjects=interferers))


# ----------------------------------------------------- vectorized vs reference

def test_run_matches_per_epoch_reference():
    config = base_config(wbans=(make_wban(1, sensor_locs=(HD, LW)), make_wban(2)),
                         epochs=30, start_indices=(5,), master_seed=11)
    assert run(config).runs[0].start_index == 5
    # Column e of every SINR block is grid epoch 5 + e.
    blocks = sinr_blocks(config)
    channels = assemble_reference(config, *simulate_pair(config))
    cycle = config.mac.cycle_ms
    offsets = {s: substream(config.master_seed, "offsets", s)
               .uniform(0.0, cycle, config.epochs) for s in (1, 2)}
    for e in range(config.epochs):
        schedules = [build_schedule(config.wban(s), config.mac, offsets[s][e])
                     for s in (1, 2)]
        decisions = evaluate_superframe(config.wban(config.victim_subject), schedules,
                                        channels, config.noise, epoch=5 + e,
                                        anchor=config.interferer_source_location)
        for d in decisions:
            i = d.sensor_index
            np.testing.assert_allclose(
                10.0 ** (blocks["single"][i, e] / 10.0), d.single, rtol=1e-9)
            np.testing.assert_allclose(
                10.0 ** (blocks["coop"][i, e] / 10.0), d.cooperative, rtol=1e-9)


_FINITE_POWER = st.floats(-30.0, 10.0)
_POWER = st.one_of(st.just(-math.inf), _FINITE_POWER)


def _assert_weights_equal(config, got, want):
    """The engine's [interferer, kind, sensor, epoch] array holds the reference's rows."""
    n_sensors = len(config.wban(config.victim_subject).sensors)
    assert got.shape == (len(config.interferer_subjects), 2, n_sensors, config.epochs)
    assert len(want) == got[:, :, :, 0].size
    for k, u in enumerate(config.interferer_subjects):
        for kind_index, kind in enumerate(("broadcast", "forward")):
            for i in range(n_sensors):
                assert got[k, kind_index, i].tobytes() == want[(u, i, kind)].tobytes(), \
                    (u, i, kind)


@settings(max_examples=60, deadline=None)
@given(n_sensors=st.integers(1, 3), n_coexisting=st.integers(2, 8),
       n_interferers=st.integers(1, 2), epochs=st.integers(1, 40),
       seed=st.integers(0, 2**32), victim_sensor_power=_FINITE_POWER,
       powers=st.lists(_POWER, min_size=8, max_size=8))
def test_interference_weights_equal_the_per_interval_reference(
        n_sensors, n_coexisting, n_interferers, epochs, seed, victim_sensor_power, powers):
    # A victim's sensors must transmit; their power never enters the weights.
    powers = [victim_sensor_power, *powers]
    locations = (HD, LW, BodyLocation.RIGHT_WRIST)[:n_sensors]
    wbans = tuple(make_wban(s, sensor_locs=locations, sensor_power=powers[3 * s - 3],
                            relay_power=powers[3 * s - 2], hub_power=powers[3 * s - 1])
                  for s in (1, 2, 3))
    config = base_config(wbans=wbans, mac=MacConfig(n_coexisting, 60.0), epochs=epochs,
                         interferer_subjects=(2, 3)[:n_interferers], master_seed=seed)
    offsets = engine._draw_offsets(config, (1, 2, 3))
    _assert_weights_equal(config,
                          engine._interference_weights(config, *simulate_pair(config), offsets),
                          interference_weights_reference(config))


def _ulps_from(x: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        x = float(np.nextafter(x, math.copysign(math.inf, ulps)))
    return x


def _fold(offsets: np.ndarray, cycle: float) -> np.ndarray:
    """Offsets in (-cycle, 2 cycle) moved into [0, cycle) by a whole cycle."""
    offsets = offsets - cycle * (offsets >= cycle) + cycle * (offsets < 0.0)
    return np.clip(offsets, 0.0, np.nextafter(cycle, 0.0))


def _slot_ends(victim, interferer, mac):
    """The end of the victim's last receive sub-interval and of the interferer's
    last transmission, relative to their superframe offsets."""
    v_layout = superframe_layout(victim, mac)
    v_end = max(rel + dur for rel, dur in v_layout.broadcast + v_layout.forward)
    i_end = max(rel + dur for rel, dur, _ in superframe_layout(interferer, mac).transmissions)
    return v_end, i_end


@settings(max_examples=150, deadline=None)
@given(n_coexisting=st.integers(1, 8), slot_len_ms=st.sampled_from([60.0, 7.3, 15.0]),
       beacon_frac=st.sampled_from([0.0, 0.1, 0.35]),
       n_sensors=st.tuples(st.integers(1, 3), st.integers(1, 3)),
       powers=st.lists(_POWER, min_size=5, max_size=5), seed=st.integers(0, 2**32))
# A gap of exactly v_end, where v_end rounds below the exact end of the last
# sub-interval, overlaps the beacon by a few ulps: it is inside the margin.
@example(n_coexisting=2, slot_len_ms=7.3, beacon_frac=0.1, n_sensors=(3, 1),
         powers=[-math.inf] * 4 + [0.0], seed=0)
def test_interference_weights_at_the_edges_of_the_skipped_gaps(
        n_coexisting, slot_len_ms, beacon_frac, n_sensors, powers, seed):
    """Epochs whose interferer starts within a few ulps of the bounds of the
    skipped gaps, of 0 and of the cycle give the reference's bytes."""
    mac = MacConfig(n_coexisting, slot_len_ms, beacon_frac)
    cycle = mac.cycle_ms
    locations = (HD, LW, BodyLocation.RIGHT_WRIST)
    victim = make_wban(1, sensor_locs=locations[:n_sensors[0]], relay_power=powers[0],
                       hub_power=powers[1])
    interferer = make_wban(2, sensor_locs=locations[:n_sensors[1]], sensor_power=powers[2],
                           relay_power=powers[3], hub_power=powers[4])
    v_end, i_end = _slot_ends(victim, interferer, mac)
    margin = 1e-9 * cycle
    edges = (v_end + margin, cycle - i_end - margin, v_end, cycle - i_end, 0.0, cycle)
    rng = np.random.default_rng(seed)
    gaps = np.array([_ulps_from(edge, ulps) for edge in edges for ulps in range(-4, 5)]
                    + rng.uniform(0.0, cycle, 20).tolist())
    # Each gap three times: with the victim at 0, where the difference of the
    # offsets is the gap itself, at a random offset, and one gap before the
    # cycle's end, where the interferer's offset is the smaller one.
    victim_offsets = _fold(np.concatenate(
        [np.zeros(gaps.size), rng.uniform(0.0, cycle, gaps.size), cycle - gaps]), cycle)
    foe_offsets = _fold(victim_offsets + np.tile(gaps, 3), cycle)
    config = base_config(wbans=(victim, interferer), mac=mac, epochs=victim_offsets.size)
    offsets = {1: victim_offsets, 2: foe_offsets}
    _assert_weights_equal(config,
                          engine._interference_weights(config, *simulate_pair(config), offsets),
                          interference_weights_reference(config, offsets))


def test_overlaps_are_computed_only_in_epochs_where_the_slots_meet(monkeypatch):
    columns = []
    overlap_lengths = engine.overlap_lengths
    monkeypatch.setattr(engine, "overlap_lengths", lambda delta, *args: columns.append(
        delta.shape[1]) or overlap_lengths(delta, *args))
    for n_coexisting in (8, 2):
        config = base_config(mac=MacConfig(n_coexisting, 15.0), epochs=400)
        offsets = engine._draw_offsets(config, (1, 2))
        columns.clear()
        engine._interference_weights(config, *simulate_pair(config), offsets)
        # Active periods [0, slot) and [gap, gap + slot) meet, up to a margin.
        cycle, slot = config.mac.cycle_ms, config.mac.slot_len_ms
        gap = (offsets[2] - offsets[1]) % cycle
        margin = 1e-9 * cycle
        meeting = int(np.count_nonzero((gap < slot + margin) | (gap > cycle - slot - margin)))
        transmissions = len(superframe_layout(config.wban(2), config.mac).transmissions)
        assert columns == [meeting] * transmissions
        if n_coexisting == 8:
            assert 0 < meeting < config.epochs / 2
        else:
            assert meeting == config.epochs


@settings(max_examples=30, deadline=None)
@given(n_sensors=st.integers(1, 3), n_interferers=st.integers(1, 2),
       seed=st.integers(0, 2**32), victim_sensor_power=_FINITE_POWER,
       powers=st.lists(_POWER, min_size=8, max_size=8))
def test_run_level_invariants(n_sensors, n_interferers, seed, victim_sensor_power, powers):
    """Cooperation never loses a packet, the outage curves lie in [0, 1] and are
    monotone with coop's below single's, crossing rates are finite and nonnegative,
    and the victim's relay order does not matter; with relays and interferers that
    may be muted."""
    locations = (HD, LW, BodyLocation.RIGHT_WRIST)[:n_sensors]
    victim = make_wban(1, sensor_locs=locations, sensor_power=victim_sensor_power)
    victim = replace(victim, relays=tuple(replace(relay, tx_power_dbm=p)
                                          for relay, p in zip(victim.relays, powers)))
    foes = tuple(make_wban(s, sensor_locs=locations, sensor_power=powers[3 * s - 4],
                           relay_power=powers[3 * s - 3], hub_power=powers[3 * s - 2])
                 for s in (2, 3))
    config = base_config(wbans=(victim, *foes), interferer_subjects=(2, 3)[:n_interferers],
                         epochs=50, channels=SyntheticChannelSource(duration_ms=120.0 * 60),
                         master_seed=seed)
    results = run(config)
    (result,) = results.runs
    blocks = sinr_blocks(config)
    assert np.all(blocks["coop"] >= blocks["single"])
    outage = {s: result.curves[s]["outage"].values for s in ("single", "coop")}
    assert all(np.all((values >= 0.0) & (values <= 1.0)) for values in outage.values())
    assert all(np.all(np.diff(values) >= 0.0) for values in outage.values())
    assert np.all(outage["coop"] <= outage["single"])
    for s in ("single", "coop"):
        lcr = result.curves[s]["lcr"].values
        assert np.all(np.isfinite(lcr) & (lcr >= 0.0))
    lcr_ref = results.summary["lcr_at_ref_hz"]
    assert np.all(np.isfinite(lcr_ref) & (lcr_ref >= 0.0))
    mirrored = sinr_blocks(replace(config, wbans=(replace(victim, relays=victim.relays[::-1]),
                                                  *foes)))
    for scheme, block in blocks.items():
        assert block.tobytes() == mirrored[scheme].tobytes()


@settings(max_examples=60, deadline=None)
@given(n_sensors=st.integers(1, 3), n_interferers=st.integers(0, 2),
       epochs=st.integers(1, 40), start=st.integers(0, 20), seed=st.integers(0, 2**32),
       sensor_powers=st.lists(_FINITE_POWER, min_size=3, max_size=3),
       powers=st.lists(_POWER, min_size=8, max_size=8))
def test_run_series_equal_the_per_sensor_reference(n_sensors, n_interferers, epochs, start,
                                                   seed, sensor_powers, powers):
    """Every row of the engine's (sensors, epochs) SINR blocks has the bytes of the
    one-sensor-at-a-time reference, with relays and interferer nodes that may be muted."""
    locations = (HD, LW, BodyLocation.RIGHT_WRIST)[:n_sensors]
    victim = make_wban(1, sensor_locs=locations)
    victim = replace(victim,
                     sensors=tuple(replace(sensor, tx_power_dbm=p)
                                   for sensor, p in zip(victim.sensors, sensor_powers)),
                     relays=tuple(replace(relay, tx_power_dbm=p)
                                  for relay, p in zip(victim.relays, powers)))
    foes = tuple(make_wban(s, sensor_locs=locations, sensor_power=powers[3 * s - 4],
                           relay_power=powers[3 * s - 3], hub_power=powers[3 * s - 2])
                 for s in (2, 3))
    config = base_config(wbans=(victim, *foes), interferer_subjects=(2, 3)[:n_interferers],
                         epochs=epochs, start_indices=(start,), master_seed=seed,
                         channels=SyntheticChannelSource(duration_ms=120.0 * 60))
    result = run(config).runs[0]
    want = sinr_series_reference(config, assemble_reference(config, *simulate_pair(config)),
                                 start)
    assert set(want) == set(range(n_sensors))
    assert result.start_index == start
    for scheme, block in sinr_blocks(config).items():
        assert block.shape == (n_sensors, epochs)
        for i, row in enumerate(block):
            assert row.tobytes() == want[i][scheme].tobytes(), (i, scheme)


@pytest.mark.parametrize("config", [
    base_config(),
    base_config(interferer_subjects=(), start_indices=(37,)),
    base_config(wbans=(make_wban(1, sensor_locs=(HD, LW)), make_wban(2), make_wban(3)),
                interferer_subjects=(3, 2), start_indices=(12,), master_seed=8),
], ids=["one-interferer", "no-interferer", "two-sensors-two-interferers"])
def test_the_sinr_helper_gives_the_blocks_run_scores(config):
    """The tests that read SINR blocks take them from ``sinr_blocks``: its blocks
    give run's outage and LCR curves byte for byte, rows in sensor order."""
    (result,) = run(config).runs
    grid, period = config.thresholds_db, config.epoch_period_ms
    for scheme, block in sinr_blocks(config).items():
        outage = empirical_outage(block.ravel(), grid)
        lcr = np.mean([lcr_curve(SinrSeries(row, period, result.start_index), grid).values
                       for row in block], axis=0)
        assert outage.values.tobytes() == result.curves[scheme]["outage"].values.tobytes()
        assert lcr.tobytes() == result.curves[scheme]["lcr"].values.tobytes()


def _wrap_cases(cycle):
    edges = [cycle, -cycle, 0.0, -0.0]
    for point in (0.0, cycle, -cycle):
        edges += [np.nextafter(point, math.inf), np.nextafter(point, -math.inf)]
    return edges + [np.nextafter(2 * cycle, 0.0), np.nextafter(-2 * cycle, 0.0)]


@given(data=st.data(), cycle=st.floats(1e-3, 1e6))
def test_wrap_equals_remainder_on_two_cycles_each_side(data, cycle):
    inside = st.floats(-2 * cycle, 2 * cycle, exclude_min=True, exclude_max=True)
    values = np.array(_wrap_cases(cycle) + data.draw(st.lists(inside, max_size=50)))
    assert engine._wrap(values, cycle).tobytes() == np.remainder(values, cycle).tobytes()


def test_run_is_deterministic():
    config = base_config()
    a, b = run(config), run(config)
    blocks = sinr_blocks(config), sinr_blocks(config)
    for scheme in ("single", "coop"):
        np.testing.assert_array_equal(blocks[0][scheme], blocks[1][scheme])
        for kind, curve in a.runs[0].curves[scheme].items():
            np.testing.assert_array_equal(curve.values, b.runs[0].curves[scheme][kind].values)
    assert a.summary.keys() == b.summary.keys()
    for name, column in a.summary.items():
        np.testing.assert_array_equal(column, b.summary[name])


@settings(max_examples=30, deadline=None)
@given(n_sensors=st.integers(1, 3), n_others=st.integers(0, 2), position=st.integers(0, 2),
       seed=st.integers(0, 2**32), victim_sensor_power=_FINITE_POWER,
       powers=st.lists(_POWER, min_size=6, max_size=6))
def test_muted_interferer_equals_absent_interferer(n_sensors, n_others, position, seed,
                                                   victim_sensor_power, powers):
    """Muting every node of interferer 4 gives the series, curves and summary
    quantities of leaving it out, wherever it stands among the others."""
    locations = (HD, LW, BodyLocation.RIGHT_WRIST)[:n_sensors]
    victim = make_wban(1, sensor_locs=locations, sensor_power=victim_sensor_power)
    others = tuple(make_wban(s, sensor_locs=locations, sensor_power=powers[3 * s - 6],
                             relay_power=powers[3 * s - 5], hub_power=powers[3 * s - 4])
                   for s in (2, 3))
    muted = make_wban(4, sensor_locs=locations, sensor_power=-math.inf,
                      relay_power=-math.inf, hub_power=-math.inf)
    present = (2, 3)[:n_others]
    with_muted = (*present[:position], 4, *present[position:])
    config = base_config(wbans=(victim, *others, muted), interferer_subjects=present,
                         epochs=50, channels=SyntheticChannelSource(duration_ms=120.0 * 60),
                         master_seed=seed)
    muted_config = replace(config, interferer_subjects=with_muted)
    without, muted_run = run(config), run(muted_config)
    muted_blocks = sinr_blocks(muted_config)
    for scheme, block in sinr_blocks(config).items():
        assert block.tobytes() == muted_blocks[scheme].tobytes()
    for scheme, curves in without.runs[0].curves.items():
        for kind, curve in curves.items():
            assert (curve.values.tobytes()
                    == muted_run.runs[0].curves[scheme][kind].values.tobytes())
    # The bytes of each quantity column, so that NaN cells compare equal.
    for q in engine.QUANTITIES:
        assert without.summary[q].tobytes() == muted_run.summary[q].tobytes()


def test_muted_relays_reduce_coop_to_single():
    blocks = sinr_blocks(base_config(wbans=(make_wban(1, relay_power=-math.inf),
                                            make_wban(2))))
    np.testing.assert_array_equal(blocks["coop"], blocks["single"])


def test_cooperation_never_hurts():
    config = base_config(epochs=150)
    blocks = sinr_blocks(config)
    assert np.all(blocks["coop"] >= blocks["single"])
    outage = run(config).runs[0].curves
    assert np.all(outage["coop"]["outage"].values <= outage["single"]["outage"].values)


def test_a_run_reads_its_gains_by_role_and_builds_no_link(monkeypatch):
    config = base_config(wbans=(make_wban(1, sensor_locs=(HD, LW, BodyLocation.RIGHT_WRIST)),
                                make_wban(2)))
    want, want_blocks = run(config).runs[0], sinr_blocks(config)
    pair = simulate_pair(config)
    channels = assemble_channels(config, *pair)
    weights = engine._interference_weights(config, *pair, engine._draw_offsets(config, (1, 2)))

    def no_link(*args):
        raise AssertionError(f"a run built the link {args}")

    monkeypatch.setattr(engine, "LinkId", no_link)
    got = engine._execute_run(config, *pair, channels, weights, 0, 0)
    assert got.summary.tobytes() == want.summary.tobytes()
    for scheme, block in engine._sinr_db(config, *pair, channels, weights, 0).items():
        assert block.tobytes() == want_blocks[scheme].tobytes()

    # Hand-built channels in mW, receivers hub, relay 1, relay 2, read as they are. The
    # noise is 1e-10 mW, and interferer 2's weights are 1 mW while the sensor broadcasts
    # and 2 mW while the relays forward:
    #   direct   2e-9 / (1e-10 + 1e-10 * 1) = 10,
    #   relay 1  min(8e-9 / (1e-10 + 3e-10 * 1), 9e-9 / (1e-10 + 1e-10 * 2)) = min(20, 30),
    #   relay 2  min(6e-9 / (1e-10 + 1e-10 * 1), 3e-9 / (1e-10 + 1e-10 * 2)) = min(30, 10),
    # so single reads 10 dB and coop 10 log10(20) dB in every epoch.
    config = base_config()
    epochs = config.epochs
    by_role = engine.VictimChannels(
        sensors=np.full((3, 1, epochs), [[[2e-9]], [[8e-9]], [[6e-9]]]),
        relays=np.full((2, epochs), [[9e-9], [3e-9]]),
        foes={2: np.full((3, epochs), [[1e-10], [3e-10], [1e-10]])})
    weights = np.full((1, 2, 1, epochs), [[[[1.0]], [[2.0]]]])
    got = engine._sinr_db(config, 1, (2,), by_role, weights, 0)
    np.testing.assert_allclose(got["single"], np.full((1, epochs), 10.0), rtol=1e-12)
    np.testing.assert_allclose(got["coop"], np.full((1, epochs), 10.0 * math.log10(20.0)),
                               rtol=1e-12)


# ------------------------------------------------------------ run-level output

def test_flat_channels_give_flat_series():
    config = base_config(channels=flat_source(), interferer_subjects=())
    results = run(config)
    (result,) = results.runs
    blocks = sinr_blocks(config)
    np.testing.assert_allclose(blocks["single"], 45.0, rtol=1e-12)
    np.testing.assert_allclose(blocks["coop"], 45.0, rtol=1e-12)
    curve = result.curves["single"]["outage"]
    grid = curve.thresholds_db
    np.testing.assert_array_equal(curve.values[grid <= 44.5], 0.0)
    np.testing.assert_array_equal(curve.values[grid >= 45.5], 1.0)
    np.testing.assert_array_equal(result.curves["single"]["lcr"].values, 0.0)
    np.testing.assert_array_equal(results.summary["gain_at_10pct_db"], [0.0, 0.0])
    np.testing.assert_array_equal(results.summary["lcr_at_ref_hz"], [0.0, 0.0])


def test_curves_aggregate_over_sensors():
    config = base_config(wbans=(make_wban(1, sensor_locs=(HD, LW)), make_wban(2)),
                         epochs=60)
    result = run(config).runs[0]
    pooled = result.curves["coop"]["outage"]
    # Pooled outage equals the mean of the two per-sensor curves (equal
    # sample counts), and the lcr curve is the per-sensor mean, byte for byte.
    coop = sinr_blocks(config)["coop"]
    per_sensor = [np.searchsorted(np.sort(coop[i]), pooled.thresholds_db, side="left") / 60.0
                  for i in (0, 1)]
    np.testing.assert_allclose(pooled.values, np.mean(per_sensor, axis=0), atol=1e-12)
    per_lcr = [lcr_curve(SinrSeries(coop[i], 120.0, 0), pooled.thresholds_db).values
               for i in (0, 1)]
    assert (result.curves["coop"]["lcr"].values.tobytes()
            == np.mean(per_lcr, axis=0).tobytes())


def test_summary_rows_are_consistent_with_curves():
    results = run(base_config(epochs=150))
    table = results.summary
    assert table["scheme"].tolist() == ["single", "coop"]
    assert table["combination"].tolist() == ["1x2", "1x2"]
    assert table["victim"].tolist() == [1, 1]
    assert table["interferer"].tolist() == ["2", "2"]
    assert table["rep"].tolist() == [0, 0]
    for scheme, thr10 in zip(table["scheme"], table["thr_at_10pct_db"]):
        expected = threshold_at_outage(results.runs[0].curves[scheme]["outage"], 0.10)
        assert thr10 == pytest.approx(expected, rel=1e-12)
    single, coop = table["thr_at_10pct_db"]
    assert table["gain_at_10pct_db"][1] == pytest.approx(coop - single, abs=1e-12)
    assert table["gain_at_10pct_db"][0] == table["gain_at_10pct_db"][1]


def test_summary_nan_when_grid_misses_the_distribution():
    config = base_config(channels=flat_source(), interferer_subjects=(),
                         thresholds_db=np.linspace(46.0, 50.0, 9))
    table = run(config).summary
    assert np.all(np.isnan(table["thr_at_10pct_db"]))
    assert np.all(np.isnan(table["gain_at_10pct_db"]))


def test_run_takes_the_first_of_start_indices():
    assert [r.start_index for r in run(base_config(start_indices=(50,))).runs] == [50]
    assert [r.start_index
            for r in run(base_config(repetitions=2, start_indices=(60, 0))).runs] == [60]
    assert [r.start_index for r in run(base_config()).runs] == [0]


def test_run_window_bounds_are_checked():
    # The traces cover 200 epochs: an error names the key that overruns them.
    with pytest.raises(ConfigError, match=r"^epochs: each run needs 300 epochs but the "
                                          r"channel traces cover 200$"):
        run(base_config(epochs=300))
    with pytest.raises(ConfigError, match=r"^start_indices\[0\]: a run from epoch 161 "
                                          r"needs \[161, 201\) but the channel traces "
                                          r"cover 200 epochs$"):
        run(base_config(start_indices=(161,)))
    assert run(base_config(start_indices=(160,))).runs[0].start_index == 160


def test_a_sweep_checks_every_window_before_any_run(monkeypatch):
    started = []
    execute = engine._execute_run
    monkeypatch.setattr(engine, "_execute_run",
                        lambda *args: started.append(args[5]) or execute(*args))
    with pytest.raises(ConfigError, match=r"^start_indices\[1\]: a run from epoch 195"):
        sweep(base_config(epochs=10, repetitions=2, start_indices=(0, 195)))
    assert started == []


# ------------------------------------------------------------------ csv parity

def test_csv_round_trip_reproduces_synthetic_run(tmp_path):
    config = base_config()
    seed = engine.channel_seed(config)
    for k, link in enumerate(required_source_links(config, *simulate_pair(config))):
        save_trace(config.channels.trace(link, seed), tmp_path / f"t{k}.csv")
    from_csv = sinr_blocks(replace(config, channels=CsvChannelSource(tmp_path)))
    from_synth = sinr_blocks(config)
    for scheme in ("single", "coop"):
        np.testing.assert_array_equal(from_csv[scheme], from_synth[scheme])


def test_a_trace_period_within_the_downsample_tolerance_runs(tmp_path):
    # downsample takes 120.00000000001 ms as stride 1; its trace must join the 120 ms set.
    config = base_config()
    seed = engine.channel_seed(config)
    links = required_source_links(config, *simulate_pair(config))
    for name, first_period in (("exact", 120.0), ("near", 120.00000000001)):
        (tmp_path / name).mkdir()
        for k, link in enumerate(links):
            save_trace(ChannelTrace(link, first_period if k == 0 else 120.0,
                                    config.channels.trace(link, seed).samples),
                       tmp_path / name / f"t{k}.csv")
    exact, near = (replace(config, channels=CsvChannelSource(tmp_path / name))
                   for name in ("exact", "near"))
    assert downsample(near.channels.trace(links[0], seed), 120.0).sample_period_ms == 120.0
    # A trace already at the epoch period is used as it is, not copied.
    on_period = near.channels.trace(links[1], seed)
    assert downsample(on_period, 120.0) is on_period
    want, got = run(exact).runs[0], run(near).runs[0]
    want_blocks, got_blocks = sinr_blocks(exact), sinr_blocks(near)
    for scheme in ("single", "coop"):
        assert got_blocks[scheme].tobytes() == want_blocks[scheme].tobytes()
        for kind in ("outage", "lcr"):
            assert (got.curves[scheme][kind].values.tobytes()
                    == want.curves[scheme][kind].values.tobytes())


# ----------------------------------------------------------------------- sweep

def test_sweep_fixed_start_repetitions_are_degenerate():
    config = base_config(repetitions=3, start_indices=(0, 0, 0))
    result = sweep(config)
    assert len(result.runs) == 3
    assert len(result.summary["scheme"]) == 6
    aggregate = result.aggregate
    assert aggregate["scheme"].tolist() == ["single", "coop"]
    np.testing.assert_array_equal(aggregate["std_thr_at_10pct_db"], 0.0)
    np.testing.assert_array_equal(aggregate["std_gain_at_10pct_db"], 0.0)
    # The rep 0 rows, single then coop.
    np.testing.assert_array_equal(aggregate["mean_thr_at_10pct_db"],
                                  result.summary["thr_at_10pct_db"][:2])


@pytest.mark.parametrize("repetitions,nan_cells", [(1, False), (3, False), (10, False),
                                                     (3, True)])
def test_aggregate_csv_has_the_bytes_of_the_per_column_reference(tmp_path, repetitions,
                                                                  nan_cells):
    config = base_config(wbans=(make_wban(1), make_wban(2), make_wban(3)), epochs=40,
                         repetitions=repetitions, sweep_victims=(1, 2),
                         sweep_interferers=(1, 2, 3))
    if nan_cells:
        # The grid of test_summary_nan_when_grid_misses_the_distribution: every
        # packet lies below it, so the thresholds and gains read NaN.
        config = replace(config, channels=flat_source(),
                         thresholds_db=np.linspace(46.0, 50.0, 9))
    results = sweep(config)
    engine.write_summary_csv(results.summary, tmp_path / "summary.csv")
    engine.write_aggregate_csv(results.aggregate, tmp_path / "aggregate.csv")
    want = aggregate_reference((tmp_path / "summary.csv").read_text())
    assert (tmp_path / "aggregate.csv").read_bytes() == want.encode()
    assert len(results.aggregate["scheme"]) == 2 * 4
    assert np.all(np.isnan(results.aggregate["mean_gain_at_10pct_db"])) == nan_cells


# The pairwise summation of np.add.reduce changes its order of additions at 8 and
# 128 elements, so the examples sit on both sides of each.
@settings(max_examples=150, deadline=None)
@given(reps=st.integers(1, 300), blocks=st.integers(1, 20), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1e-3, 1.0, 5.0, 1e6]), grid=st.booleans(),
       nan_share=st.sampled_from([0.0, 0.05, 0.5, 1.0]))
@example(reps=1, blocks=3, seed=0, scale=1.0, grid=False, nan_share=0.0)
@example(reps=8, blocks=3, seed=1, scale=5.0, grid=False, nan_share=0.0)
@example(reps=9, blocks=3, seed=2, scale=5.0, grid=True, nan_share=0.0)
@example(reps=128, blocks=3, seed=3, scale=5.0, grid=False, nan_share=0.0)
@example(reps=129, blocks=3, seed=4, scale=5.0, grid=False, nan_share=0.05)
@example(reps=300, blocks=20, seed=5, scale=1e6, grid=False, nan_share=0.0)
def test_batched_mean_and_std_over_the_last_axis_equal_the_1d_calls(reps, blocks, seed, scale,
                                                                    grid, nan_share):
    """The aggregate's one mean and one std over a contiguous last axis give every
    block the bytes of np.mean and np.std of that block alone, NaN included."""
    rng = np.random.default_rng(seed)
    values = rng.normal(30.0, scale, (blocks, reps))
    if grid:  # interpolated thresholds often repeat a grid point exactly
        values = np.round(values * 2.0) / 2.0
    values[rng.random(values.shape) < nan_share] = math.nan
    batched = np.ascontiguousarray(values)
    mean, std = batched.mean(axis=-1), batched.std(axis=-1)
    for k, block in enumerate(values):
        assert repr(float(mean[k])) == repr(float(np.mean(block)))
        assert repr(float(std[k])) == repr(float(np.std(block)))


def test_a_sweeps_peak_memory_does_not_grow_with_its_runs():
    """Ten more repetitions raise a sweep's traced peak by less than one run's SINR
    blocks, 2 schemes x 3 sensors x 4000 epochs x 8 B = 192 000 B: a run's blocks
    end with the run, and what it keeps, 4 curves of 161 points and its summary,
    is about 7 kB. A sweep that kept every run's blocks would grow by ten."""
    sensors, epochs = 3, 4000
    config = base_config(wbans=(make_wban(1, sensor_locs=(HD, LW, BodyLocation.RIGHT_WRIST)),
                                make_wban(2)),
                         epochs=epochs, channels=SyntheticChannelSource(duration_ms=120.0 * 5000))
    one_run_blocks = 2 * sensors * epochs * 8

    def peak(repetitions):
        tracemalloc.start()
        try:
            sweep(replace(config, repetitions=repetitions))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    sweep(config)  # imports and caches of the first sweep stay outside both peaks
    assert peak(12) - peak(2) < one_run_blocks


def test_sweep_matrix_and_worker_equivalence():
    config = base_config(sweep_victims=(1, 2), sweep_interferers=(1, 2),
                         repetitions=2)
    serial = sweep(config)
    assert set(serial.summary["combination"].tolist()) == {"1x2", "2x1"}
    assert len(serial.summary["combination"]) == 8


def test_sweep_start_indices_drive_repetitions():
    same = sweep(base_config(repetitions=2, start_indices=(7, 7)))
    assert same.summary["thr_at_10pct_db"][0] == same.summary["thr_at_10pct_db"][2]
    varied = sweep(base_config(repetitions=2, start_indices=(0, 80)))
    assert varied.summary["thr_at_10pct_db"][0] != varied.summary["thr_at_10pct_db"][2]
    with pytest.raises(ConfigError, match="start_indices"):
        sweep(base_config(repetitions=3, start_indices=(0, 1)))


def test_sweep_random_starts_stay_in_bounds_and_vary():
    result = sweep(base_config(epochs=50, repetitions=6, master_seed=2))
    starts = [r.start_index for r in result.runs]
    assert all(0 <= s <= 150 for s in starts)
    assert len(set(starts)) > 1


def test_sweep_rejects_an_empty_matrix():
    with pytest.raises(ConfigError, match="empty combination"):
        sweep(base_config(interferer_subjects=()))


def test_sweep_does_each_job_once_at_the_level_where_it_varies(monkeypatch):
    calls = {"assemble": 0, "overlap": 0}
    fetched = []

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    trace = SyntheticChannelSource.trace
    monkeypatch.setattr(SyntheticChannelSource, "trace",
                        lambda source, link, seed: fetched.append(link)
                        or trace(source, link, seed))
    monkeypatch.setattr(engine, "assemble_channels",
                        counted("assemble", engine.assemble_channels))
    monkeypatch.setattr(engine, "overlap_lengths",
                        counted("overlap", engine.overlap_lengths))
    subjects = (1, 2, 3)
    config = base_config(wbans=tuple(make_wban(s) for s in subjects), epochs=20,
                         sweep_victims=subjects, sweep_interferers=subjects)

    overlaps = []
    for repetitions in (1, 3):
        calls.update(assemble=0, overlap=0)
        fetched.clear()
        sweep(replace(config, repetitions=repetitions))
        assert calls["assemble"] == len(subjects)
        assert len(fetched) == len(set(fetched))
        assert set(fetched) == {
            link for v in subjects for link in required_source_links(
                config, v, tuple(u for u in subjects if u != v))}
        overlaps.append(calls["overlap"])
    assert overlaps[0] == overlaps[1] > 0


def test_a_sweep_draws_each_subjects_offsets_once(monkeypatch):
    drawn = Counter()
    draw = engine.substream
    monkeypatch.setattr(engine, "substream",
                        lambda seed, *labels: drawn.update([labels]) or draw(seed, *labels))
    subjects = (1, 2, 3, 4, 5)
    sweep(base_config(wbans=tuple(make_wban(s) for s in subjects), epochs=20,
                      repetitions=2, sweep_victims=(1, 2, 3), sweep_interferers=(4, 5)))
    offsets = {labels: n for labels, n in drawn.items() if labels[0] == "offsets"}
    assert offsets == {("offsets", s): 1 for s in subjects}


def test_a_pair_window_ignores_other_interferers_traces(tmp_path):
    config = base_config(wbans=(make_wban(1), make_wban(2), make_wban(3)),
                         interferer_subjects=(2, 3), repetitions=4)
    seed = engine.channel_seed(config)
    for k, link in enumerate(required_source_links(config, *simulate_pair(config))):
        trace = config.channels.trace(link, seed)
        if link.tx_subject == 3:  # interferer 3's traces are shorter
            trace = ChannelTrace(link, trace.sample_period_ms, trace.samples[:60])
        save_trace(trace, tmp_path / f"t{k}.csv")
    csv_config = replace(config, channels=CsvChannelSource(tmp_path))

    both = sweep(replace(csv_config, sweep_interferers=(2, 3)))
    alone = sweep(replace(csv_config, sweep_interferers=(2,)))
    pair = [r for r in both.runs if r.interferer_subjects == (2,)]
    starts = [r.start_index for r in alone.runs]
    assert [r.start_index for r in pair] == starts
    assert max(starts) > 60 - config.epochs  # beyond what interferer 3 allows
    pair_rows = both.summary["combination"] == "1x2"
    for name, column in alone.summary.items():
        assert repr(both.summary[name][pair_rows].tolist()) == repr(column.tolist())
    assert all(r.start_index <= 60 - config.epochs
               for r in both.runs if r.interferer_subjects == (3,))

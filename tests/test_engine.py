import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import HD, LW, make_wban
from oracle import (build_schedule, evaluate_superframe, interference_weights_reference,
                    sinr_series_reference)
from wbansim import engine
from wbansim.channel import (BodyLocation, ChannelSet, ChannelTrace, LinkId,
                             MissingLinkError, SyntheticChannelParams, fspl_db,
                             load_trace, save_trace)
from wbansim.engine import (ConfigError, CsvChannelSource, ExperimentConfig,
                            RadioConfig, SyntheticChannelSource, assemble_channels,
                            required_source_links, run, sweep)
from wbansim.metrics import lcr_curve, threshold_at_outage
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
    links = {str(l) for l in required_source_links(base_config())}
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
    channels = assemble_channels(config)

    base = channels.trace(LinkId.parse("2:LH->1:LH"))
    np.testing.assert_array_equal(base.samples, np.full(8, -72.0))  # pass-through
    to_chest = channels.trace(LinkId.parse("2:LH->1:C"))
    np.testing.assert_allclose(
        to_chest.samples, -72.0 + (-55.0 + fspl_db(0.40, 2.36e9)), rtol=1e-12)
    to_rh = channels.trace(LinkId.parse("2:LH->1:RH"))
    np.testing.assert_allclose(
        to_rh.samples, -72.0 + (-52.0 + fspl_db(0.30, 2.36e9)), rtol=1e-12)
    np.testing.assert_array_equal(
        channels.trace(LinkId.parse("1:HD->1:C")).samples, np.full(8, -60.0))


def test_csv_source_reads_each_file_once(tmp_path, monkeypatch):
    links = required_source_links(base_config())
    for k, link in enumerate(links):
        save_trace(ChannelTrace(link, 120.0, np.full(8, -60.0 - k)), tmp_path / f"t{k}.csv")
    calls = []
    monkeypatch.setattr(engine, "load_trace",
                        lambda *args: calls.append(args) or load_trace(*args))
    channels = assemble_channels(base_config(channels=CsvChannelSource(tmp_path), epochs=8))
    assert len(calls) == len(links)
    for k, link in enumerate(links):
        np.testing.assert_array_equal(channels.trace(link).samples, np.full(8, -60.0 - k))


def test_assemble_downsamples_to_epoch_period(tmp_path):
    links = [str(l) for l in required_source_links(base_config())]
    for k, text in enumerate(links):
        save_trace(ChannelTrace(LinkId.parse(text), 40.0, np.arange(24.0)),
                   tmp_path / f"t{k}.csv")
    channels = assemble_channels(base_config(channels=CsvChannelSource(tmp_path),
                                             epochs=8))
    trace = channels.trace(LinkId.parse("1:HD->1:C"))
    assert trace.sample_period_ms == 120.0
    np.testing.assert_array_equal(trace.samples, np.arange(0.0, 24.0, 3.0))


def test_assemble_needs_a_distance_for_the_anchor_pairs():
    # The config that would need the missing C-RH distance does not load.
    with pytest.raises(ConfigError, match=r"radio\.link_distances_m: .* C-RH"):
        base_config(interferer_source_location=BodyLocation.RIGHT_HIP)
    radio = RadioConfig(link_distances_m={("C", "RH"): 0.3, ("LH", "RH"): 0.3})
    channels = assemble_channels(
        base_config(interferer_source_location=BodyLocation.RIGHT_HIP, radio=radio))
    assert channels.trace(LinkId.parse("2:RH->1:C")).n_samples == 200


def test_missing_trace_is_reported(tmp_path):
    config = base_config(channels=CsvChannelSource(tmp_path))
    with pytest.raises(Exception, match="no channel trace"):
        assemble_channels(config)
    # Every missing link is named in one error.
    present, *missing = required_source_links(config)
    save_trace(ChannelTrace(present, 120.0, np.full(8, -60.0)), tmp_path / "t.csv")
    with pytest.raises(MissingLinkError) as error:
        assemble_channels(replace(config, channels=CsvChannelSource(tmp_path)))
    named = str(error.value)
    assert all(f"link {link} in" in named for link in missing)
    assert f"link {present} in" not in named


# ----------------------------------------------------- vectorized vs reference

def test_run_matches_per_epoch_reference():
    config = base_config(wbans=(make_wban(1, sensor_locs=(HD, LW)), make_wban(2)),
                         epochs=30, start_indices=(5,), master_seed=11)
    result = run(config)
    # Sample e of every series lies at grid epoch 5 + e.
    assert {(s.start_index, s.period_ms) for by_scheme in result.series.values()
            for s in by_scheme.values()} == {(5, 120.0)}
    channels = assemble_channels(config)
    cycle = config.mac.cycle_ms
    offsets = {s: substream(config.master_seed, "offsets", s)
               .uniform(0.0, cycle, config.epochs) for s in (1, 2)}
    for e in range(config.epochs):
        schedules = [build_schedule(config.wban(s), config.mac, offsets[s][e])
                     for s in (1, 2)]
        decisions = evaluate_superframe(config.victim, schedules, channels,
                                        config.noise, epoch=5 + e,
                                        anchor=config.interferer_source_location)
        for d in decisions:
            got = result.series[d.sensor_index]
            np.testing.assert_allclose(
                10.0 ** (got["single"].values_db[e] / 10.0), d.single, rtol=1e-9)
            np.testing.assert_allclose(
                10.0 ** (got["coop"].values_db[e] / 10.0), d.cooperative, rtol=1e-9)


_FINITE_POWER = st.floats(-30.0, 10.0)
_POWER = st.one_of(st.just(-math.inf), _FINITE_POWER)


def _assert_weights_equal(config, got, want):
    """The engine's [interferer, kind, sensor, epoch] array holds the reference's rows."""
    n_sensors = len(config.victim.sensors)
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
    _assert_weights_equal(config, engine._interference_weights(config, offsets),
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
    _assert_weights_equal(config, engine._interference_weights(config, offsets),
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
        engine._interference_weights(config, offsets)
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
    """Cooperation never loses a packet, the outage curves are monotone with coop's
    below single's, crossing rates are nonnegative, and the victim's relay order
    does not matter; with relays and interferers that may be muted."""
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
    result = run(config)
    for per_sensor in result.series.values():
        assert np.all(per_sensor["coop"].values_db >= per_sensor["single"].values_db)
    outage = {s: result.curves[s]["outage"].values for s in ("single", "coop")}
    assert all(np.all(np.diff(values) >= 0.0) for values in outage.values())
    assert np.all(outage["coop"] <= outage["single"])
    assert all(np.all(result.curves[s]["lcr"].values >= 0.0) for s in ("single", "coop"))
    assert all(row.lcr_at_ref_hz >= 0.0 for row in result.summary)
    mirrored = run(replace(config, wbans=(replace(victim, relays=victim.relays[::-1]),
                                          *foes)))
    for i, per_sensor in result.series.items():
        for scheme, series in per_sensor.items():
            assert series.values_db.tobytes() == mirrored.series[i][scheme].values_db.tobytes()


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
    result = run(config)
    want = sinr_series_reference(config, assemble_channels(config), start)
    assert set(result.series) == set(want) == set(range(n_sensors))
    for i, per_sensor in want.items():
        for scheme, values_db in per_sensor.items():
            got = result.series[i][scheme]
            assert got.values_db.tobytes() == values_db.tobytes(), (i, scheme)
            assert got.start_index == start


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
    for i in a.series:
        for scheme in ("single", "coop"):
            np.testing.assert_array_equal(a.series[i][scheme].values_db,
                                          b.series[i][scheme].values_db)
    assert a.summary == b.summary


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
    without = run(config)
    muted_run = run(replace(config, interferer_subjects=with_muted))
    for i, per_sensor in without.series.items():
        for scheme, series in per_sensor.items():
            assert series.values_db.tobytes() == muted_run.series[i][scheme].values_db.tobytes()
    for scheme, curves in without.curves.items():
        for kind, curve in curves.items():
            assert curve.values.tobytes() == muted_run.curves[scheme][kind].values.tobytes()
    # repr, as summary.csv writes them, so that NaN cells compare equal.
    for row, muted_row in zip(without.summary, muted_run.summary, strict=True):
        assert ([repr(getattr(row, q)) for q in engine._SUMMARY_QUANTITIES]
                == [repr(getattr(muted_row, q)) for q in engine._SUMMARY_QUANTITIES])


def test_muted_relays_reduce_coop_to_single():
    config = base_config(wbans=(make_wban(1, relay_power=-math.inf), make_wban(2)))
    result = run(config)
    np.testing.assert_array_equal(result.series[0]["coop"].values_db,
                                  result.series[0]["single"].values_db)


def test_cooperation_never_hurts():
    result = run(base_config(epochs=150))
    assert np.all(result.series[0]["coop"].values_db
                  >= result.series[0]["single"].values_db)
    outage = result.curves
    assert np.all(outage["coop"]["outage"].values <= outage["single"]["outage"].values)


def test_a_run_converts_each_link_window_once(monkeypatch):
    config = base_config(wbans=(make_wban(1, sensor_locs=(HD, LW, BodyLocation.RIGHT_WRIST)),
                                make_wban(2)))
    available = engine._available_epochs(config, assemble_channels(config))
    monkeypatch.setattr(engine, "_available_epochs", lambda config, channels: available)
    looked_up = Counter()
    trace = ChannelSet.trace
    monkeypatch.setattr(ChannelSet, "trace",
                        lambda channels, link: looked_up.update([link])
                        or trace(channels, link))
    run(config)
    # 9 sensor hops, 2 relay-to-hub hops, interference at the hub and both relays.
    assert len(looked_up) == 14
    assert set(looked_up.values()) == {1}


# ------------------------------------------------------------ run-level output

def test_flat_channels_give_flat_series():
    config = base_config(channels=flat_source(), interferer_subjects=())
    result = run(config)
    single = result.series[0]["single"].values_db
    np.testing.assert_allclose(single, 45.0, rtol=1e-12)
    np.testing.assert_allclose(result.series[0]["coop"].values_db, 45.0, rtol=1e-12)
    curve = result.curves["single"]["outage"]
    grid = curve.thresholds_db
    np.testing.assert_array_equal(curve.values[grid <= 44.5], 0.0)
    np.testing.assert_array_equal(curve.values[grid >= 45.5], 1.0)
    np.testing.assert_array_equal(result.curves["single"]["lcr"].values, 0.0)
    for row in result.summary:
        assert row.gain_at_10pct_db == 0.0
        assert row.lcr_at_ref_hz == 0.0


def test_curves_aggregate_over_sensors():
    config = base_config(wbans=(make_wban(1, sensor_locs=(HD, LW)), make_wban(2)),
                         epochs=60)
    result = run(config)
    pooled = result.curves["coop"]["outage"]
    # Pooled outage equals the mean of the two per-sensor curves (equal
    # sample counts), and the lcr curve is the per-sensor mean.
    per_sensor = [np.searchsorted(np.sort(result.series[i]["coop"].values_db),
                                  pooled.thresholds_db, side="left") / 60.0
                  for i in (0, 1)]
    np.testing.assert_allclose(pooled.values, np.mean(per_sensor, axis=0), atol=1e-12)
    per_lcr = [lcr_curve(result.series[i]["coop"], pooled.thresholds_db).values
               for i in (0, 1)]
    np.testing.assert_allclose(result.curves["coop"]["lcr"].values,
                               np.mean(per_lcr, axis=0), atol=1e-12)


def test_summary_rows_are_consistent_with_curves():
    result = run(base_config(epochs=150))
    rows = {row.scheme: row for row in result.summary}
    assert set(rows) == {"single", "coop"}
    for scheme, row in rows.items():
        assert row.combination == "1x2"
        assert (row.victim, row.interferer, row.rep) == (1, "2", 0)
        expected = threshold_at_outage(result.curves[scheme]["outage"], 0.10)
        assert row.thr_at_10pct_db == pytest.approx(expected, rel=1e-12)
    assert rows["coop"].gain_at_10pct_db == pytest.approx(
        rows["coop"].thr_at_10pct_db - rows["single"].thr_at_10pct_db, abs=1e-12)
    assert rows["single"].gain_at_10pct_db == rows["coop"].gain_at_10pct_db


def test_summary_nan_when_grid_misses_the_distribution():
    config = base_config(channels=flat_source(), interferer_subjects=(),
                         thresholds_db=np.linspace(46.0, 50.0, 9))
    result = run(config)
    for row in result.summary:
        assert math.isnan(row.thr_at_10pct_db)
        assert math.isnan(row.gain_at_10pct_db)


def test_run_takes_the_first_of_start_indices():
    assert run(base_config(start_indices=(50,))).start_index == 50
    assert run(base_config(repetitions=2, start_indices=(60, 0))).start_index == 60
    assert run(base_config()).start_index == 0


def test_run_window_bounds_are_checked():
    # The traces cover 200 epochs: an error names the key that overruns them.
    with pytest.raises(ConfigError, match=r"^epochs: each run needs 300 epochs but the "
                                          r"channel traces cover 200$"):
        run(base_config(epochs=300))
    with pytest.raises(ConfigError, match=r"^start_indices\[0\]: a run from epoch 161 "
                                          r"needs \[161, 201\) but the channel traces "
                                          r"cover 200 epochs$"):
        run(base_config(start_indices=(161,)))
    assert run(base_config(start_indices=(160,))).start_index == 160


def test_a_sweep_checks_every_window_before_any_run(monkeypatch):
    started = []
    execute = engine._execute_run
    monkeypatch.setattr(engine, "_execute_run",
                        lambda *args: started.append(args[3]) or execute(*args))
    with pytest.raises(ConfigError, match=r"^start_indices\[1\]: a run from epoch 195"):
        sweep(base_config(epochs=10, repetitions=2, start_indices=(0, 195)))
    assert started == []


# ------------------------------------------------------------------ csv parity

def test_csv_round_trip_reproduces_synthetic_run(tmp_path):
    config = base_config()
    seed = engine.channel_seed(config)
    for k, link in enumerate(required_source_links(config)):
        save_trace(config.channels.trace(link, seed), tmp_path / f"t{k}.csv")
    from_csv = run(replace(config, channels=CsvChannelSource(tmp_path)))
    from_synth = run(config)
    for scheme in ("single", "coop"):
        np.testing.assert_array_equal(from_csv.series[0][scheme].values_db,
                                      from_synth.series[0][scheme].values_db)


# ----------------------------------------------------------------------- sweep

def test_sweep_fixed_start_repetitions_are_degenerate():
    config = base_config(repetitions=3, start_indices=(0, 0, 0))
    result = sweep(config)
    assert len(result.runs) == 3
    assert len(result.rows) == 6
    assert {agg.scheme for agg in result.aggregates} == {"single", "coop"}
    for agg in result.aggregates:
        assert agg.std_thr_at_10pct_db == 0.0
        assert agg.std_gain_at_10pct_db == 0.0
        rep0 = [r for r in result.rows if r.scheme == agg.scheme][0]
        assert agg.mean_thr_at_10pct_db == rep0.thr_at_10pct_db


def test_sweep_matrix_and_worker_equivalence():
    config = base_config(sweep_victims=(1, 2), sweep_interferers=(1, 2),
                         repetitions=2)
    serial = sweep(config)
    assert {r.combination for r in serial.rows} == {"1x2", "2x1"}
    assert len(serial.rows) == 8


def test_sweep_start_indices_drive_repetitions():
    same = sweep(base_config(repetitions=2, start_indices=(7, 7)))
    assert same.rows[0].thr_at_10pct_db == same.rows[2].thr_at_10pct_db
    varied = sweep(base_config(repetitions=2, start_indices=(0, 80)))
    assert varied.rows[0].thr_at_10pct_db != varied.rows[2].thr_at_10pct_db
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
                replace(config, victim_subject=v,
                        interferer_subjects=tuple(u for u in subjects if u != v)))}
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
    for k, link in enumerate(required_source_links(config)):
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
    assert repr([r for r in both.rows if r.combination == "1x2"]) == repr(alone.rows)
    assert all(r.start_index <= 60 - config.epochs
               for r in both.runs if r.interferer_subjects == (3,))

"""Experiment orchestration: channel assembly, epoch loop, sweeps.

A run simulates one victim network against zero or more interfering
networks over a window of block-fading epochs. Each epoch covers exactly
one TDMA cycle (with the defaults, two 60 ms slots per 120 ms channel
block): all networks draw fresh superframe offsets, every victim sensor
packet is scored under both transmission schemes, and the resulting SINR
series feed the outage and level crossing metrics.

A sweep repeats runs over a victim x interferer combination matrix with
several repetitions at varied channel start indices, and aggregates the
summary quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Mapping

import numpy as np

from .channel import (BodyLocation, ChannelTrace, FieldError, LinkId, MissingLinkError,
                      SyntheticChannelParams, TraceError, downsample, extract_shadowing,
                      generate_synthetic, load_trace, overlay)
from .metrics import (MetricsCurve, MetricsError, SinrSeries, empirical_outage,
                      lcr_curve, level_crossing_rate, threshold_at_outage,
                      threshold_grid)
from .network import (COORDINATOR_LOCATIONS, MacConfig, WbanConfig, overlap_lengths,
                      superframe_layout)
from .relaying import NoiseModel, cooperative_sinr
from .seeding import derive_seed, substream


class ConfigError(Exception):
    """A configuration problem, named after the offending section or key."""


@dataclass(frozen=True, eq=False)
class SyntheticChannelSource:
    """Generates every required trace with the AR(1) shadowing model.

    on_body parameters apply to links within a subject, inter_body to
    links between subjects; overrides (keyed by link) replace the class
    parameters for individual links.
    """

    sample_period_ms: float = 120.0
    duration_ms: float = 4_800_000.0
    on_body: SyntheticChannelParams = SyntheticChannelParams(-55.0, 6.0, 240.0)
    inter_body: SyntheticChannelParams = SyntheticChannelParams(-70.0, 6.0, 500.0)
    overrides: Mapping[LinkId, SyntheticChannelParams] = field(default_factory=dict)

    def __post_init__(self):
        if not (math.isfinite(self.sample_period_ms) and self.sample_period_ms > 0.0):
            raise ValueError(
                f"sample_period_ms must be positive and finite, got {self.sample_period_ms}")
        if not (math.isfinite(self.duration_ms) and self.duration_ms >= self.sample_period_ms):
            raise ValueError("duration_ms must be finite and cover at least one sample, got "
                             f"{self.duration_ms}")

    def params_for(self, link: LinkId) -> SyntheticChannelParams:
        override = self.overrides.get(link)
        if override is not None:
            return override
        return self.on_body if link.is_intra else self.inter_body

    def trace(self, link: LinkId, seed: int) -> ChannelTrace:
        return generate_synthetic(self.params_for(link), link, self.duration_ms,
                                  self.sample_period_ms, seed)


@dataclass(frozen=True)
class CsvChannelSource:
    """Serves traces from a directory of trace CSVs, indexed by header link.

    The directory is read once, on the first request, and every trace is
    kept for the lifetime of the source.
    """

    directory: Path

    @cached_property
    def _traces(self) -> dict[LinkId, ChannelTrace]:
        directory = Path(self.directory)
        if not directory.is_dir():
            raise ConfigError(f"channels: csv_dir {directory} is not a directory")
        traces: dict[LinkId, ChannelTrace] = {}
        paths: dict[LinkId, Path] = {}
        for path in sorted(directory.glob("*.csv")):
            trace = load_trace(path)
            if trace.link in traces:
                raise TraceError(f"duplicate trace for link {trace.link}: "
                                 f"{paths[trace.link]} and {path}")
            traces[trace.link], paths[trace.link] = trace, path
        return traces

    def trace(self, link: LinkId, seed: int) -> ChannelTrace:
        if link not in self._traces:
            raise MissingLinkError(f"no channel trace for link {link} in {self.directory}")
        return self._traces[link]


def _distance_key(a: BodyLocation, b: BodyLocation) -> tuple[str, str]:
    return tuple(sorted((a.value, b.value)))


def _anchor_pairs(anchor: BodyLocation) -> list[tuple[str, str]]:
    """The sorted distance keys from ``anchor`` to each other coordinator location."""
    return sorted(_distance_key(anchor, loc) for loc in COORDINATOR_LOCATIONS - {anchor})


@dataclass(frozen=True, eq=False)
class RadioConfig:
    """Carrier frequency and inter-device distances for shadowing extraction, each
    positive and finite; a ``FieldError`` names a distance by its pair, as
    ``link_distances_m.C-LH``."""

    frequency_hz: float = 2.36e9
    link_distances_m: Mapping[tuple[str, str], float] = field(
        default_factory=lambda: {("C", "LH"): 0.40, ("LH", "RH"): 0.30})

    def __post_init__(self):
        for name, value in [("frequency_hz", self.frequency_hz),
                            *((f"link_distances_m.{'-'.join(pair)}", metres)
                              for pair, metres in self.link_distances_m.items())]:
            if not (math.isfinite(value) and value > 0):
                raise FieldError(name, f"expected a positive finite number, got {value!r}")

    def distance_m(self, a: BodyLocation, b: BodyLocation) -> float:
        key = _distance_key(a, b)
        try:
            return self.link_distances_m[key]
        except KeyError:
            raise ConfigError(f"radio: no link distance configured for pair "
                              f"{key[0]}-{key[1]}") from None


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Complete description of one reproducible experiment."""

    wbans: tuple[WbanConfig, ...]
    victim_subject: int
    epochs: int
    interferer_subjects: tuple[int, ...] = ()
    mac: MacConfig = MacConfig()
    noise: NoiseModel = NoiseModel()
    radio: RadioConfig = RadioConfig()
    channels: SyntheticChannelSource | CsvChannelSource = SyntheticChannelSource()
    master_seed: int = 0
    repetitions: int = 1
    # A run's first epoch: start_indices[rep] (simulate takes [0]), else 0
    # for simulate and a drawn index per sweep repetition.
    start_indices: tuple[int, ...] | None = None
    interferer_source_location: BodyLocation = BodyLocation.LEFT_HIP
    thresholds_db: np.ndarray = field(default_factory=threshold_grid)
    lcr_ref_threshold_db: float = 5.0
    sweep_victims: tuple[int, ...] = ()
    sweep_interferers: tuple[int, ...] = ()

    def __post_init__(self):
        subjects = [w.subject for w in self.wbans]
        if len(set(subjects)) != len(subjects):
            raise ConfigError(f"wbans: duplicate subject ids in {subjects}")
        # A repeated interferer would count twice, a repeated sweep entry rerun its pairs.
        for key, listed in (("interferers", self.interferer_subjects),
                            ("sweep.victims", self.sweep_victims),
                            ("sweep.interferers", self.sweep_interferers)):
            if len(set(listed)) != len(listed):
                raise ConfigError(f"{key}: duplicate subject ids in {list(listed)}")
        for subject in (self.victim_subject, *self.interferer_subjects,
                        *self.sweep_victims, *self.sweep_interferers):
            if subject not in subjects:
                raise ConfigError(f"no wban defined for subject {subject}")
        if self.victim_subject in self.interferer_subjects:
            raise ConfigError(f"victim subject {self.victim_subject} cannot interfere "
                              "with itself")
        victims = self.sweep_victims or (self.victim_subject,)
        for subject in dict.fromkeys((self.victim_subject, *victims)):
            k = subjects.index(subject)
            for j, sensor in enumerate(self.wbans[k].sensors):
                # A mute sensor and one whose power underflows to 0 mW alike.
                if not sensor.tx_power_mw > 0.0:
                    raise ConfigError(
                        f"wbans[{k}].sensors[{j}].tx_power_dbm: the sensors of victim "
                        f"subject {subject} must transmit above 0 mW, got "
                        f"{sensor.tx_power_dbm} dBm")
        # Interference reaches the hub and relays, which always occupy the
        # coordinator locations, by overlay onto the anchor's on-body traces.
        if self.interferer_subjects or sweep_pairs(self):
            anchor = self.interferer_source_location
            missing = ["-".join(pair) for pair in _anchor_pairs(anchor)
                       if pair not in self.radio.link_distances_m]
            if missing:
                raise ConfigError(
                    f"radio.link_distances_m: no distance for the pair(s) {', '.join(missing)} "
                    f"that interference from source_location {anchor} needs")
        if not 0 <= self.master_seed < 2**64:
            raise ConfigError(f"seed must be in [0, 2**64), got {self.master_seed}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.repetitions < 1:
            raise ConfigError(f"repetitions must be >= 1, got {self.repetitions}")
        if self.start_indices is not None and len(self.start_indices) < self.repetitions:
            raise ConfigError(f"start_indices lists {len(self.start_indices)} entries "
                              f"but repetitions is {self.repetitions}")
        for k, start in enumerate(self.start_indices or ()):
            if start < 0:
                raise ConfigError(f"start_indices[{k}] must be >= 0, got {start}")
        grid = np.array(self.thresholds_db, dtype=np.float64)
        if not (grid.ndim == 1 and grid.size and np.all(np.isfinite(grid))
                and np.all(np.diff(grid) > 0)):
            raise ConfigError("metrics.threshold_{start,stop,step}_db: the threshold grid "
                              "must be a non-empty 1-D array of finite, strictly "
                              f"increasing values, got {grid.size} points")
        grid.flags.writeable = False
        object.__setattr__(self, "thresholds_db", grid)
        if not math.isfinite(self.lcr_ref_threshold_db):
            raise ConfigError(f"metrics.lcr_ref_threshold_db must be finite, "
                              f"got {self.lcr_ref_threshold_db}")
        # An override that neither simulate nor a sweep pair fetches would change nothing.
        if isinstance(self.channels, SyntheticChannelSource) and self.channels.overrides:
            read = set(source_links(self))
            for link in self.channels.overrides:
                if link not in read:
                    raise ConfigError(f"channels.synthetic.overrides.{link}: "
                                      "no run reads this link")

    def wban(self, subject: int) -> WbanConfig:
        for wban in self.wbans:
            if wban.subject == subject:
                return wban
        raise ConfigError(f"no wban defined for subject {subject}")

    @property
    def epoch_period_ms(self) -> float:
        """One block-fading epoch spans one TDMA cycle."""
        return self.mac.cycle_ms


def _device_locations(victim: WbanConfig) -> tuple[BodyLocation, ...]:
    return (victim.hub.location, victim.relays[0].location, victim.relays[1].location)


def required_source_links(config: ExperimentConfig, subject: int,
                          interferers: tuple[int, ...]) -> list[LinkId]:
    """Links whose raw traces a run of ``subject`` against ``interferers`` reads.

    Victim on-body links first (sensor hops, relay hops and the anchor
    links that donate shadowing), then one cross-body base link per
    interferer, ending at the victim's anchor location.
    """
    victim = config.wban(subject)
    hub_loc = victim.hub.location
    anchor = config.interferer_source_location
    links: dict[LinkId, None] = {}
    for sensor in victim.sensors:
        for target in _device_locations(victim):
            links.setdefault(LinkId(subject, sensor.location, subject, target))
    for relay in victim.relays:
        links.setdefault(LinkId(subject, relay.location, subject, hub_loc))
    for loc in _device_locations(victim):
        if loc != anchor:
            links.setdefault(LinkId(subject, anchor, subject, loc))
    for interferer in interferers:
        links.setdefault(LinkId(interferer, anchor, subject, anchor))
    return list(links)


def source_links(config: ExperimentConfig) -> list[LinkId]:
    """Every link that simulate or any sweep pair reads, simulate's links first."""
    pairs = [(config.victim_subject, config.interferer_subjects), *sweep_pairs(config)]
    return list(dict.fromkeys(link for pair in pairs
                              for link in required_source_links(config, *pair)))


def channel_seed(config: ExperimentConfig) -> int:
    """The seed every source trace of ``config`` is fetched with."""
    return derive_seed(config.master_seed, "channels")


@dataclass(frozen=True, eq=False)
class VictimChannels:
    """One victim's channels in mW by link role, receivers ordered hub, relay 1, relay 2.

    ``sensors[receiver, sensor, epoch]`` and ``relays[relay, epoch]`` (at the hub)
    are received powers, cut to the shortest on-body source trace, donors of shadowing
    included. ``foes[u][receiver, epoch]`` holds interferer ``u``'s path gains, whose
    powers are in the weights, cut to the shortest of its base trace and its overlays.
    """

    sensors: np.ndarray
    relays: np.ndarray
    foes: Mapping[int, np.ndarray]


def assemble_channels(config: ExperimentConfig, subject: int,
                      interferers: tuple[int, ...]) -> VictimChannels:
    """Fetch, decimate and overlay every trace ``subject`` against ``interferers`` needs.

    On-body victim traces are used directly. Interference channels are
    assembled per interferer and victim device location: the cross-body
    base trace (interferer to the victim's anchor location) passes
    through unchanged for the anchor location itself, and is overlaid
    with the shadowing extracted from the victim's on-body anchor-to-
    location trace for the other device locations. Every link the source
    lacks is named in one MissingLinkError. It returns the gains in mW.
    """
    victim = config.wban(subject)
    anchor = config.interferer_source_location
    seed = channel_seed(config)

    traces: dict[LinkId, ChannelTrace] = {}
    missing: list[str] = []
    for link in required_source_links(config, subject, interferers):
        try:
            traces[link] = downsample(config.channels.trace(link, seed),
                                      config.epoch_period_ms)
        except MissingLinkError as exc:
            missing.append(str(exc))
    if missing:
        raise MissingLinkError("; ".join(missing))

    receivers = _device_locations(victim)
    n = min(trace.n_samples for link, trace in traces.items() if link.is_intra)

    def on_body(tx: BodyLocation, rx: BodyLocation) -> np.ndarray:
        return traces[LinkId(subject, tx, subject, rx)].samples[:n]

    sensors = np.array([[on_body(sensor.location, rx) for sensor in victim.sensors]
                        for rx in receivers])
    relays = np.array([on_body(relay.location, receivers[0]) for relay in victim.relays])
    # Each non-anchor receiver's donor shadowing, shared by every interferer.
    donors = {loc: extract_shadowing(traces[LinkId(subject, anchor, subject, loc)],
                                     config.radio.distance_m(anchor, loc),
                                     config.radio.frequency_hz)
              for loc in receivers if loc != anchor} if interferers else {}
    foes = {}
    for interferer in interferers:
        base = traces[LinkId(interferer, anchor, subject, anchor)]
        rows = [base if loc == anchor else
                overlay(base, donors[loc], LinkId(interferer, anchor, subject, loc))
                for loc in receivers]
        m = min(base.n_samples, *(row.n_samples for row in rows))
        foes[interferer] = np.array([row.samples[:m] for row in rows])
    # In place, 10 ** (dB / 10) times the transmit power for sensors and relays; a
    # power beyond float range is left to the run, which names its sensor.
    with np.errstate(all="ignore"):
        for gains in (sensors, relays, *foes.values()):
            np.power(10.0, np.divide(gains, 10.0, out=gains), out=gains)
        sensors *= [[sensor.tx_power_mw] for sensor in victim.sensors]
        relays *= [[relay.tx_power_mw] for relay in victim.relays]
    return VictimChannels(sensors, relays, foes)


# A run's summary holds these quantities of these schemes, in this order on its axes.
SCHEMES = ("single", "coop")
QUANTITIES = ("thr_at_1pct_db", "thr_at_10pct_db", "gain_at_10pct_db", "lcr_at_ref_hz")


@dataclass
class RunResult:
    """What a run keeps: its keys, curves and summary quantities."""

    victim_subject: int
    interferer_subjects: tuple[int, ...]
    rep: int
    start_index: int
    curves: dict[str, dict[str, MetricsCurve]]
    # summary[s, q]: QUANTITIES[q] of SCHEMES[s], NaN where not computable.
    summary: np.ndarray

    @property
    def combination(self) -> str:
        return _combination_id(self.victim_subject, self.interferer_subjects)[0]


@dataclass
class Results:
    """A command's runs and its two tables, each a dict of equal-length columns.

    ``summary`` has one row per (run, scheme), in run order with single before
    coop: combination, victim, interferer, rep, scheme and the QUANTITIES.
    ``aggregate`` has one row per (pair, scheme): combination, victim,
    interferer, scheme, then mean_<q> and std_<q> of each quantity over the
    pair's repetitions, std the population deviation (ddof 0).
    """

    runs: list[RunResult]
    summary: dict[str, np.ndarray]
    aggregate: dict[str, np.ndarray]


def _combination_id(victim: int, interferers: tuple[int, ...]) -> tuple[str, str]:
    label = "+".join(str(s) for s in interferers) if interferers else "-"
    return f"{victim}x{label}", label


def _quantile_or_nan(curve: MetricsCurve, probability: float) -> float:
    try:
        return threshold_at_outage(curve, probability)
    except MetricsError:
        return math.nan


def _draw_offsets(config: ExperimentConfig, subjects) -> dict[int, np.ndarray]:
    """Per-epoch superframe offsets in [0, cycle) of each subject's "offsets" stream.

    The stream carries no repetition label or partner, so one draw per
    subject serves every run and pair it takes part in.
    """
    return {s: substream(config.master_seed, "offsets", s)
            .uniform(0.0, config.mac.cycle_ms, config.epochs) for s in subjects}


def _wrap(a: np.ndarray, cycle: float) -> np.ndarray:
    """``np.remainder(a, cycle)``, bit for bit, for every ``a`` in (-2 cycle, 2 cycle).

    Each step is one exact subtraction or the same rounded addition that
    ``np.remainder`` makes, and adding 0.0 turns -0.0 into +0.0 as it does;
    ``np.remainder`` itself costs tens of times more per element.
    """
    a = a - cycle * (a >= cycle)
    a = a + cycle * (a < 0)
    return a + cycle * (a < 0)


def _interference_weights(config: ExperimentConfig, subject: int,
                          interferers: tuple[int, ...], offsets: Mapping[int, np.ndarray],
                          ) -> np.ndarray:
    """Per-epoch interference weights, indexed [interferer, kind, sensor, epoch].

    Each is the power-weighted overlap of one of ``interferers`` with the broadcast
    (kind 0) or forward (kind 1) sub-interval of a sensor of ``subject``, for the
    superframe ``offsets`` of each subject (see ``_draw_offsets``). One
    pass per foreign transmission covers every sub-interval, in transmission
    order, over the epochs where the active periods can meet; every other
    epoch's weights are exactly +0.0, the bytes the full pass gives there.
    """
    victim, mac = config.wban(subject), config.mac
    cycle = mac.cycle_ms
    v_layout = superframe_layout(victim, mac)
    # One row per victim receive sub-interval: every broadcast, then every forward.
    sub_intervals = np.array(v_layout.broadcast + v_layout.forward)
    rel_a, dur_a = sub_intervals[:, :1], sub_intervals[:, 1:]
    v_end = float(np.max(rel_a + dur_a))
    # Far more than the few ulps of 2 cycle by which a computed delta can
    # miss its exact value; MacConfig keeps the cycle finite.
    margin = 1e-9 * cycle
    weights = np.zeros((len(interferers), len(sub_intervals), config.epochs))
    for weighted, interferer in zip(weights, interferers):
        i_layout = superframe_layout(config.wban(interferer), mac)
        i_end = max(rel_b + dur_b for rel_b, dur_b, _ in i_layout.transmissions)
        # Both offsets lie in [0, cycle) and both relative starts in [0, slot),
        # so every delta lies in (-2 cycle, 2 cycle), where _wrap is exact.
        delta_base = offsets[interferer] - offsets[subject]
        # The interferer's active period starts gap after the victim's. When
        # v_end + margin <= gap <= cycle - i_end - margin, the exact delta of
        # every pair lies in [dur_a + margin, cycle - dur_b - margin], since
        # rel_a + dur_a <= v_end and rel_b + dur_b <= i_end. The computed
        # delta is off by far less than the margin, so the direct and the
        # wrapped overlap are both max(0.0, x <= 0) = +0.0, and adding
        # (+0.0 / dur_a) * tx_power_mw, finite for every NodeSpec, leaves the
        # zeros at +0.0: such epochs are skipped. Without room for the margins,
        # every epoch is kept.
        low, high = v_end + margin, cycle - i_end - margin
        if low > high:
            meet = slice(None)
        else:
            gap = _wrap(delta_base, cycle)
            meet = np.flatnonzero((gap < low) | (gap > high))
        met = delta_base[meet]
        weighted_met = np.zeros((len(sub_intervals), met.size))
        for rel_b, dur_b, node in i_layout.transmissions:
            delta = _wrap((met + rel_b) - rel_a, cycle)
            weighted_met += ((overlap_lengths(delta, dur_a, dur_b, cycle) / dur_a)
                             * node.tx_power_mw)
        weighted[:, meet] = weighted_met
    return weights.reshape(len(interferers), 2, len(victim.sensors), config.epochs)


def _sinr_db(config: ExperimentConfig, subject: int, interferers: tuple[int, ...],
             channels: VictimChannels, weights: np.ndarray, start_index: int,
             ) -> dict[str, np.ndarray]:
    """Per scheme, the SINR in dB of victim sensor i in epoch start_index + e at [i, e]
    of a run of ``subject`` against ``interferers``; a sensor whose SINR leaves float
    range is named in a MetricsError."""
    epochs = config.epochs
    window = slice(start_index, start_index + epochs)
    received = channels.sensors[:, :, window]

    # Out-of-range values are found below, by block, and named.
    with np.errstate(all="ignore"):
        # The interferers' power, added in order: at each receiver while the
        # sensors broadcast, and at the hub while the relays forward.
        broadcast = np.zeros(received.shape)
        forward = np.zeros(received.shape[1:])
        for u, foe_weights in zip(interferers, weights):
            gains = channels.foes[u][:, window]
            broadcast += gains[:, None] * foe_weights[0]
            forward += gains[0] * foe_weights[1]
        noise_mw = config.noise.noise_mw
        nu_direct, *nu_sr = received / (noise_mw + broadcast)
        nu_rh = channels.relays[:, None, window] / (noise_mw + forward)
        coop = cooperative_sinr(nu_direct, nu_sr, nu_rh)
        blocks = {"single": 10.0 * np.log10(nu_direct), "coop": 10.0 * np.log10(coop)}
    for scheme, block in blocks.items():
        finite = np.isfinite(block)
        if not finite.all():
            j = int(np.flatnonzero(~finite.all(axis=1))[0])
            k = [w.subject for w in config.wbans].index(subject)
            bad = epochs - np.count_nonzero(finite[j])
            raise MetricsError(f"wbans[{k}].sensors[{j}]: the {scheme} SINR is beyond "
                               f"float range in {bad} of {epochs} epochs")
    return blocks


def _execute_run(config: ExperimentConfig, subject: int, interferers: tuple[int, ...],
                 channels: VictimChannels, weights: np.ndarray, start_index: int,
                 rep: int) -> RunResult:
    """One run of ``subject`` against ``interferers``: its curves and summary from the
    SINR blocks of ``_sinr_db``, which end with the run."""
    thresholds, ref_db = config.thresholds_db, config.lcr_ref_threshold_db
    curves, summary = {}, []
    for scheme, block in _sinr_db(config, subject, interferers, channels, weights,
                                  start_index).items():
        series = SinrSeries(block, config.epoch_period_ms, start_index)
        outage = empirical_outage(block.ravel(), thresholds)
        curves[scheme] = {"outage": outage, "lcr": lcr_curve(series, thresholds)}
        summary.append([_quantile_or_nan(outage, 0.01), _quantile_or_nan(outage, 0.10), 0.0,
                        level_crossing_rate(series, ref_db)])
    summary = np.array(summary)
    # The gain at 10 % outage, coop's threshold less single's, in both rows.
    summary[:, 2] = summary[1, 1] - summary[0, 1]
    return RunResult(subject, interferers, rep, start_index, curves, summary)


def _run_combination(config: ExperimentConfig, subject: int, interferers: tuple[int, ...],
                     channels: VictimChannels, offsets: Mapping[int, np.ndarray],
                     starts) -> list[RunResult]:
    """The runs of ``subject`` against ``interferers``, run ``rep`` from ``starts[rep]``.

    ``starts`` None draws ``config.repetitions`` starts, each from the "start",
    victim, interferer, rep stream (one interferer only). Every window is
    checked against the traces before any run, and the interference weights
    are computed once for all of them.
    """
    epochs = config.epochs
    # Every trace the pair reads covers these epochs: the on-body ones and
    # each of its interferers' bases and overlays.
    available = min([channels.sensors.shape[-1],
                     *(channels.foes[u].shape[-1] for u in interferers)])
    usable = available - epochs
    if usable < 0:
        raise ConfigError(f"epochs: each run needs {epochs} epochs but the channel "
                          f"traces cover {available}")
    if starts is None:
        (interferer,) = interferers
        starts = [int(substream(config.master_seed, "start", subject, interferer, rep)
                      .integers(0, usable + 1))
                  for rep in range(config.repetitions)]
    for k, start in enumerate(starts):
        if start > usable:
            raise ConfigError(f"start_indices[{k}]: a run from epoch {start} needs "
                              f"[{start}, {start + epochs}) but the channel traces "
                              f"cover {available} epochs")
    weights = _interference_weights(config, subject, interferers, offsets)
    return [_execute_run(config, subject, interferers, channels, weights, start, rep)
            for rep, start in enumerate(starts)]


def _results(config: ExperimentConfig, plan, starts) -> Results:
    """Run each victim of ``plan`` against each of its interferer tuples, one pair per
    tuple, from ``starts`` (see ``_run_combination``), and tabulate the runs.

    Superframe offsets are drawn once per subject, channels assembled once per
    victim for all of its interferers, and interference weights computed once
    per pair.
    """
    offsets = _draw_offsets(config, dict.fromkeys(s for victim, pairs in plan
                                                  for foes in pairs for s in (victim, *foes)))
    runs: list[RunResult] = []
    for victim, pairs in plan:
        channels = assemble_channels(config, victim, tuple(u for foes in pairs for u in foes))
        for foes in pairs:
            runs += _run_combination(config, victim, foes, channels, offsets, starts)

    reps = runs[-1].rep + 1
    keys = zip(*((*_combination_id(r.victim_subject, r.interferer_subjects),
                  r.victim_subject, r.rep) for r in runs))
    combination, interferer, victim, rep = (np.repeat(key, len(SCHEMES)) for key in keys)
    quantities = np.array([r.summary for r in runs])  # [run, scheme, quantity]
    summary = {"combination": combination, "victim": victim, "interferer": interferer,
               "rep": rep, "scheme": np.tile(SCHEMES, len(runs)),
               **dict(zip(QUANTITIES, quantities.reshape(-1, len(QUANTITIES)).T))}
    # [pair, scheme, quantity, rep] with rep last and contiguous: one mean and one std
    # over it give every cell the bytes of np.mean and np.std of its own repetitions.
    by_rep = np.ascontiguousarray(
        quantities.reshape(-1, reps, *quantities.shape[1:]).transpose(0, 2, 3, 1))
    mean, std = by_rep.mean(axis=-1), by_rep.std(axis=-1)
    aggregate = {key: summary[key][rep == 0]
                 for key in ("combination", "victim", "interferer", "scheme")}
    for q, name in enumerate(QUANTITIES):
        aggregate[f"mean_{name}"] = mean[..., q].ravel()
        aggregate[f"std_{name}"] = std[..., q].ravel()
    return Results(runs, summary, aggregate)


def run(config: ExperimentConfig) -> Results:
    """The victim against all of its interferers together as one pair with one
    repetition, from ``start_indices[0]`` if that is set, else 0 (see ``Results``)."""
    pair = (config.victim_subject, [config.interferer_subjects])
    return _results(config, [pair], (config.start_indices or (0,))[:1])


def sweep_pairs(config: ExperimentConfig) -> list[tuple[int, tuple[int, ...]]]:
    """Each sweep victim (sweep_victims, else the victim) with the interferers it runs
    against (sweep_interferers, else the interferers, less itself), if it has any."""
    interferers = config.sweep_interferers or config.interferer_subjects
    pairs = [(v, tuple(u for u in interferers if u != v))
             for v in config.sweep_victims or (config.victim_subject,)]
    return [(v, foes) for v, foes in pairs if foes]


def sweep(config: ExperimentConfig) -> Results:
    """Run the victim x interferer matrix with repetitions and aggregate.

    The matrix is ``sweep_pairs``, each victim against each of its interferers
    alone. Repetition ``rep`` starts at ``start_indices[rep]`` if that is set,
    else at a drawn start. The summary table holds every run, and the
    aggregate table each pair's mean and population deviation over its
    repetitions (see ``Results``). Results are deterministic in the master seed.
    """
    pairs = sweep_pairs(config)
    if not pairs:
        raise ConfigError("sweep: empty combination matrix")
    starts = None if config.start_indices is None else config.start_indices[:config.repetitions]
    return _results(config, [(v, [(u,) for u in foes]) for v, foes in pairs], starts)


def _write_table(table: Mapping[str, np.ndarray], path) -> None:
    """One CSV line per row under a header of the column names. Each cell is ``str``
    of its element of the column's ``tolist()``, which for a float is its ``repr``."""
    columns = [np.asarray(column).tolist() for column in table.values()]
    lines = [",".join(table), *(",".join(map(str, row)) for row in zip(*columns))]
    Path(path).write_text("\n".join(lines) + "\n")


# One writer under a name per output file, which perfbench/tracing.py wraps one by one.
write_summary_csv = write_aggregate_csv = _write_table

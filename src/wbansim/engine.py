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
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from pathlib import Path
from typing import Mapping

import numpy as np

from .channel import (BodyLocation, ChannelSet, ChannelTrace, LinkId, MissingLinkError,
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
    links between subjects; overrides (keyed by link string) replace the
    class parameters for individual links.
    """

    sample_period_ms: float = 120.0
    duration_ms: float = 4_800_000.0
    on_body: SyntheticChannelParams = SyntheticChannelParams(-55.0, 6.0, 240.0)
    inter_body: SyntheticChannelParams = SyntheticChannelParams(-70.0, 6.0, 500.0)
    overrides: Mapping[str, SyntheticChannelParams] = field(default_factory=dict)

    def __post_init__(self):
        if not (math.isfinite(self.sample_period_ms) and self.sample_period_ms > 0.0):
            raise ValueError(
                f"sample_period_ms must be positive and finite, got {self.sample_period_ms}")
        if not (math.isfinite(self.duration_ms) and self.duration_ms >= self.sample_period_ms):
            raise ValueError("duration_ms must be finite and cover at least one sample, got "
                             f"{self.duration_ms}")

    def params_for(self, link: LinkId) -> SyntheticChannelParams:
        override = self.overrides.get(str(link))
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


@dataclass(frozen=True, eq=False)
class RadioConfig:
    """Carrier frequency and inter-device distances for shadowing extraction."""

    frequency_hz: float = 2.36e9
    link_distances_m: Mapping[tuple[str, str], float] = field(
        default_factory=lambda: {("C", "LH"): 0.40, ("LH", "RH"): 0.30})

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
            missing = sorted("-".join(_distance_key(anchor, loc))
                             for loc in COORDINATOR_LOCATIONS - {anchor}
                             if _distance_key(anchor, loc) not in self.radio.link_distances_m)
            if missing:
                raise ConfigError(
                    f"radio.link_distances_m: no distance for the pair(s) {', '.join(missing)} "
                    f"that interference from source_location {anchor} needs")
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
        if not math.isfinite(self.lcr_ref_threshold_db):
            raise ConfigError(f"metrics.lcr_ref_threshold_db must be finite, "
                              f"got {self.lcr_ref_threshold_db}")

    def wban(self, subject: int) -> WbanConfig:
        for wban in self.wbans:
            if wban.subject == subject:
                return wban
        raise ConfigError(f"no wban defined for subject {subject}")

    @property
    def epoch_period_ms(self) -> float:
        """One block-fading epoch spans one TDMA cycle."""
        return self.mac.cycle_ms

    @property
    def victim(self) -> WbanConfig:
        return self.wban(self.victim_subject)

    @property
    def interferers(self) -> tuple[WbanConfig, ...]:
        return tuple(self.wban(s) for s in self.interferer_subjects)


def _device_locations(victim: WbanConfig) -> tuple[BodyLocation, ...]:
    return (victim.hub.location, victim.relays[0].location, victim.relays[1].location)


def required_source_links(config: ExperimentConfig) -> list[LinkId]:
    """Links whose raw traces the channel source must provide.

    Victim on-body links first (sensor hops, relay hops and the anchor
    links that donate shadowing), then one cross-body base link per
    interferer, ending at the victim's anchor location.
    """
    victim = config.victim
    subject = victim.subject
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
    for interferer in config.interferers:
        links.setdefault(LinkId(interferer.subject, anchor, subject, anchor))
    return list(links)


def channel_seed(config: ExperimentConfig) -> int:
    """The seed every source trace of ``config`` is fetched with."""
    return derive_seed(config.master_seed, "channels")


def assemble_channels(config: ExperimentConfig) -> ChannelSet:
    """Fetch, decimate and overlay every trace the simulation needs.

    On-body victim traces are used directly. Interference channels are
    assembled per interferer and victim device location: the cross-body
    base trace (interferer to the victim's anchor location) passes
    through unchanged for the anchor location itself, and is overlaid
    with the shadowing extracted from the victim's on-body anchor-to-
    location trace for the other device locations. Every link the source
    lacks is named in one MissingLinkError.
    """
    subject = config.victim_subject
    anchor = config.interferer_source_location
    seed = channel_seed(config)

    traces: dict[LinkId, ChannelTrace] = {}
    missing: list[str] = []
    for link in required_source_links(config):
        try:
            traces[link] = downsample(config.channels.trace(link, seed),
                                      config.epoch_period_ms)
        except MissingLinkError as exc:
            missing.append(str(exc))
    if missing:
        raise MissingLinkError("; ".join(missing))

    for interferer in config.interferer_subjects:
        base = traces[LinkId(interferer, anchor, subject, anchor)]
        for loc in _device_locations(config.victim):
            if loc == anchor:
                continue
            shadow_source = traces[LinkId(subject, anchor, subject, loc)]
            shadowing = extract_shadowing(shadow_source,
                                          config.radio.distance_m(anchor, loc),
                                          config.radio.frequency_hz)
            out_link = LinkId(interferer, anchor, subject, loc)
            traces[out_link] = overlay(base, shadowing, out_link)
    return ChannelSet(traces.values())


def _available_epochs(config: ExperimentConfig, channels: ChannelSet) -> int:
    """Epochs covered by every source trace that running ``config`` reads.

    Only the configured victim's and interferers' links count, so the other
    interferers a shared channel set also covers never move the window. An
    overlaid channel is as long as the shorter of its base and its donor,
    both source links, so it never lowers the bound.
    """
    return min(channels.trace(link).n_samples for link in required_source_links(config))


@dataclass(frozen=True)
class SummaryRow:
    """Per-(run, scheme) summary quantities; NaN where not computable."""

    combination: str
    victim: int
    interferer: str
    rep: int
    scheme: str
    thr_at_1pct_db: float
    thr_at_10pct_db: float
    gain_at_10pct_db: float
    lcr_at_ref_hz: float


# The SummaryRow fields that AggregateRow averages over repetitions.
_SUMMARY_QUANTITIES = ("thr_at_1pct_db", "thr_at_10pct_db", "gain_at_10pct_db",
                       "lcr_at_ref_hz")


@dataclass(frozen=True)
class AggregateRow:
    """Mean and spread of summary quantities across repetitions."""

    combination: str
    victim: int
    interferer: str
    scheme: str
    mean_thr_at_1pct_db: float
    std_thr_at_1pct_db: float
    mean_thr_at_10pct_db: float
    std_thr_at_10pct_db: float
    mean_gain_at_10pct_db: float
    std_gain_at_10pct_db: float
    mean_lcr_at_ref_hz: float
    std_lcr_at_ref_hz: float


@dataclass
class RunResult:
    """All outputs of one run: per-sensor series, curves and summaries."""

    victim_subject: int
    interferer_subjects: tuple[int, ...]
    rep: int
    start_index: int
    series: dict[int, dict[str, SinrSeries]]
    curves: dict[str, dict[str, MetricsCurve]]
    summary: list[SummaryRow]


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


def _interference_weights(config: ExperimentConfig, offsets: Mapping[int, np.ndarray],
                          ) -> np.ndarray:
    """Per-epoch interference weights, indexed [interferer, kind, sensor, epoch].

    Each is the power-weighted overlap of one of ``config.interferers`` with a
    victim sensor's broadcast (kind 0) or forward (kind 1) sub-interval, for
    the superframe ``offsets`` of each subject (see ``_draw_offsets``). One
    pass per foreign transmission covers every sub-interval, in transmission
    order, over the epochs where the active periods can meet; every other
    epoch's weights are exactly +0.0, the bytes the full pass gives there.
    """
    victim, mac = config.victim, config.mac
    cycle = mac.cycle_ms
    v_layout = superframe_layout(victim, mac)
    # One row per victim receive sub-interval: every broadcast, then every forward.
    sub_intervals = np.array(v_layout.broadcast + v_layout.forward)
    rel_a, dur_a = sub_intervals[:, :1], sub_intervals[:, 1:]
    v_end = float(np.max(rel_a + dur_a))
    # Far more than the few ulps of 2 cycle by which a computed delta can
    # miss its exact value; MacConfig keeps the cycle finite.
    margin = 1e-9 * cycle
    weights = np.zeros((len(config.interferers), len(sub_intervals), config.epochs))
    for weighted, interferer in zip(weights, config.interferers):
        i_layout = superframe_layout(interferer, mac)
        i_end = max(rel_b + dur_b for rel_b, dur_b, _ in i_layout.transmissions)
        # Both offsets lie in [0, cycle) and both relative starts in [0, slot),
        # so every delta lies in (-2 cycle, 2 cycle), where _wrap is exact.
        delta_base = offsets[interferer.subject] - offsets[victim.subject]
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
    return weights.reshape(len(config.interferers), 2, len(victim.sensors), config.epochs)


def _linear_gains(channels: ChannelSet, links, window: slice) -> np.ndarray:
    """One row per link: its gains over ``window`` in linear power."""
    return 10.0 ** (np.array([channels.trace(link).samples[window] for link in links]) / 10.0)


def _noise_plus_interference(noise_mw: float, foe_gains, weights: np.ndarray, rx: int,
                             kind: int) -> np.ndarray:
    """Per sensor and epoch, noise plus the interferers' power, added in order, at
    receiver ``rx`` (0 the hub, then the relays) in sub-interval ``kind`` of ``weights``."""
    total = np.zeros(weights.shape[2:])
    for gains, foe_weights in zip(foe_gains, weights):
        total += gains[rx] * foe_weights[kind]
    return noise_mw + total


def _execute_run(config: ExperimentConfig, channels: ChannelSet, weights: np.ndarray,
                 start_index: int, rep: int) -> RunResult:
    """One run: a (sensors, epochs) SINR block per scheme, then its curves and summary."""
    victim, subject, epochs = config.victim, config.victim_subject, config.epochs
    window = slice(start_index, start_index + epochs)
    receivers = _device_locations(victim)  # the hub, then the relays
    p_sensor = np.array([[sensor.tx_power_mw] for sensor in victim.sensors])

    # Out-of-range values are found below, by block, and named.
    with np.errstate(all="ignore"):
        # Gains by link role: from the sensors to each receiver, a (sensors, epochs)
        # block; from each relay to the hub and each interferer to each receiver, a row.
        # Blocks no larger than these, alive until the run returns, reuse the heap
        # as one sensor's rows did; bigger or shorter-lived ones page fault more.
        from_sensors = [_linear_gains(channels, [LinkId(subject, sensor.location, subject, rx)
                                                 for sensor in victim.sensors], window)
                        for rx in receivers]
        relay_hub = [_linear_gains(channels, [LinkId(subject, relay.location, subject,
                                                     receivers[0])], window)
                     for relay in victim.relays]
        foe_gains = [[_linear_gains(channels, [LinkId(u, config.interferer_source_location,
                                                      subject, rx)], window)
                      for rx in receivers] for u in config.interferer_subjects]
        noise_mw = config.noise.noise_mw
        den_broadcast = [_noise_plus_interference(noise_mw, foe_gains, weights, rx, 0)
                         for rx in range(len(receivers))]
        den_hub_forward = _noise_plus_interference(noise_mw, foe_gains, weights, 0, 1)
        nu_direct, *nu_sr = [(p_sensor * gains) / den
                             for gains, den in zip(from_sensors, den_broadcast)]
        nu_rh = [(relay.tx_power_mw * gains) / den_hub_forward
                 for relay, gains in zip(victim.relays, relay_hub)]
        coop = cooperative_sinr(nu_direct, nu_sr, nu_rh)
        sinr_db = {"single": 10.0 * np.log10(nu_direct), "coop": 10.0 * np.log10(coop)}
    for scheme, block in sinr_db.items():
        finite = np.isfinite(block)
        if not finite.all():
            j = int(np.flatnonzero(~finite.all(axis=1))[0])
            k = [w.subject for w in config.wbans].index(subject)
            bad = epochs - np.count_nonzero(finite[j])
            raise MetricsError(f"wbans[{k}].sensors[{j}]: the {scheme} SINR is beyond "
                               f"float range in {bad} of {epochs} epochs")

    thresholds, ref_db = config.thresholds_db, config.lcr_ref_threshold_db
    series, curves, quantities = {i: {} for i in range(len(victim.sensors))}, {}, {}
    for scheme, block in sinr_db.items():
        rows = [SinrSeries(values, config.epoch_period_ms, start_index) for values in block]
        for i, row in enumerate(rows):
            series[i][scheme] = row
        outage = empirical_outage(block.ravel(), thresholds)
        lcr = np.mean([lcr_curve(row, thresholds).values for row in rows], axis=0)
        curves[scheme] = {"outage": outage, "lcr": MetricsCurve("lcr", thresholds, lcr)}
        quantities[scheme] = (_quantile_or_nan(outage, 0.01), _quantile_or_nan(outage, 0.10),
                              float(np.mean([level_crossing_rate(r, ref_db) for r in rows])))

    combination, label = _combination_id(subject, config.interferer_subjects)
    gain10 = quantities["coop"][1] - quantities["single"][1]
    summary = [SummaryRow(combination, subject, label, rep, scheme, thr1, thr10, gain10, ref)
               for scheme, (thr1, thr10, ref) in quantities.items()]
    return RunResult(subject, config.interferer_subjects, rep, start_index,
                     series, curves, summary)


def _run_combination(config: ExperimentConfig, channels: ChannelSet,
                     offsets: Mapping[int, np.ndarray], repetitions: int,
                     draw_starts: bool) -> list[RunResult]:
    """The first ``repetitions`` runs of the configured victim against its interferers.

    Run ``rep`` starts at ``start_indices[rep]`` if that is set, else at a
    start drawn from the "start", victim, interferer, rep stream if
    ``draw_starts`` (one interferer only), else at 0. Every window is
    checked against the traces before any run, and the interference
    weights are computed once for all of them.
    """
    epochs = config.epochs
    available = _available_epochs(config, channels)
    usable = available - epochs
    if usable < 0:
        raise ConfigError(f"epochs: each run needs {epochs} epochs but the channel "
                          f"traces cover {available}")
    if config.start_indices is not None:
        starts = config.start_indices[:repetitions]
        for k, start in enumerate(starts):
            if start > usable:
                raise ConfigError(f"start_indices[{k}]: a run from epoch {start} needs "
                                  f"[{start}, {start + epochs}) but the channel traces "
                                  f"cover {available} epochs")
    elif draw_starts:
        (interferer,) = config.interferer_subjects
        starts = [int(substream(config.master_seed, "start", config.victim_subject,
                                interferer, rep).integers(0, usable + 1))
                  for rep in range(repetitions)]
    else:
        starts = [0] * repetitions
    weights = _interference_weights(config, offsets)
    return [_execute_run(config, channels, weights, start, rep)
            for rep, start in enumerate(starts)]


def run(config: ExperimentConfig) -> RunResult:
    """Execute one deterministic run, from ``start_indices[0]`` if that is set, else 0."""
    channels = assemble_channels(config)
    offsets = _draw_offsets(config, (config.victim_subject, *config.interferer_subjects))
    (result,) = _run_combination(config, channels, offsets, 1, draw_starts=False)
    return result


def sweep_pairs(config: ExperimentConfig) -> list[tuple[int, tuple[int, ...]]]:
    """Each sweep victim (sweep_victims, else the victim) with the interferers it runs
    against (sweep_interferers, else the interferers, less itself), if it has any."""
    interferers = config.sweep_interferers or config.interferer_subjects
    pairs = [(v, tuple(u for u in interferers if u != v))
             for v in config.sweep_victims or (config.victim_subject,)]
    return [(v, foes) for v, foes in pairs if foes]


@dataclass
class SweepResult:
    """Outputs of a combination sweep."""

    rows: list[SummaryRow]
    aggregates: list[AggregateRow]
    runs: list[RunResult]


def sweep(config: ExperimentConfig) -> SweepResult:
    """Run the victim x interferer matrix with repetitions and aggregate.

    The matrix is ``sweep_pairs``. Superframe offsets are drawn once per
    subject, channels assembled once per victim, for all of its interferers,
    and interference weights computed once per pair. Results are
    deterministic in the master seed; standard deviations are population
    deviations over the repetitions.
    """
    pairs = sweep_pairs(config)
    rows: list[SummaryRow] = []
    aggregates: list[AggregateRow] = []
    runs: list[RunResult] = []
    offsets = _draw_offsets(config, dict.fromkeys(s for v, foes in pairs for s in (v, *foes)))
    for victim, foes in pairs:
        channels = assemble_channels(replace(config, victim_subject=victim,
                                             interferer_subjects=foes))
        for interferer in foes:
            results = _run_combination(replace(config, victim_subject=victim,
                                               interferer_subjects=(interferer,)),
                                       channels, offsets, config.repetitions,
                                       draw_starts=True)
            runs.extend(results)
            pair_rows = [row for result in results for row in result.summary]
            rows.extend(pair_rows)
            combination, label = _combination_id(victim, (interferer,))
            for scheme in ("single", "coop"):
                scheme_rows = [r for r in pair_rows if r.scheme == scheme]
                spread = {}
                for name in _SUMMARY_QUANTITIES:
                    column = np.array([getattr(r, name) for r in scheme_rows])
                    spread[f"mean_{name}"] = float(np.mean(column))
                    spread[f"std_{name}"] = float(np.std(column))
                aggregates.append(AggregateRow(combination, victim, label, scheme, **spread))
    if not runs:
        raise ConfigError("sweep: empty combination matrix")
    return SweepResult(rows, aggregates, runs)


def _format_cell(value) -> str:
    return repr(float(value)) if isinstance(value, float) else str(value)


def _write_rows(row_type, rows, path) -> None:
    """One CSV line per dataclass row, columns in field order under a header."""
    columns = [f.name for f in fields(row_type)]
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_format_cell(getattr(row, c)) for c in columns))
    Path(path).write_text("\n".join(lines) + "\n")


def write_summary_csv(rows: list[SummaryRow], path) -> None:
    _write_rows(SummaryRow, rows, path)


def write_aggregate_csv(rows: list[AggregateRow], path) -> None:
    _write_rows(AggregateRow, rows, path)

"""Scalar, per-superframe reference model that the vectorised engine is checked against.

It places every network's superframe at a drawn offset, finds the foreign
transmissions overlapping each victim receive interval on the circular
cycle, and scores one sensor packet at a time with scalar SINR and max-min
relay selection. It shares with the engine only the superframe layout and
the circular overlap length, and it reads the channels from its own
assembly: every trace a run reads, by link, built from the source with
``downsample``, ``extract_shadowing`` and ``overlay``.

It also keeps the per-threshold definition of the level crossing rate that
the one-pass kernel in ``wbansim.metrics`` is checked against, the
per-(sub-interval, transmission) interference weights that the engine's
one pass per transmission is checked against, the per-sensor SINR series
that the engine's (sensors, epochs) blocks must match byte for byte, and
the AR(1) shadowing recurrence, one step at a time, that
``generate_synthetic`` must match bit for bit. It reads and writes trace
CSVs one row at a time: the bytes ``save_trace`` must write, and the
samples or the first bad row's error that ``load_trace`` must give. Last,
it states the interference-free model's outage in closed form.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from wbansim.channel import (BodyLocation, ChannelTrace, LinkId, SyntheticChannelParams,
                             TraceError, downsample, extract_shadowing, overlay)
from wbansim.metrics import SinrSeries
from wbansim.network import (MacConfig, NodeSpec, WbanConfig, overlap_lengths,
                             superframe_layout)
from wbansim.relaying import NoiseModel
from wbansim.seeding import derive_seed, substream


# ------------------------------------------------------------------ channels

def assemble_reference(config, subject: int, interferers: Sequence[int],
                       ) -> dict[LinkId, ChannelTrace]:
    """Every trace a run of ``subject`` against ``interferers`` reads, by link.

    Each source link (the victim's on-body hops, the anchor links that
    donate shadowing, and each interferer's base link to the victim's
    anchor location) is fetched with the "channels" seed and decimated to
    the cycle. Each interferer's channel toward a receiver other than the
    anchor is its base with the donor's shadowing overlaid, under the
    interferer's link to that receiver.
    """
    victim = config.wban(subject)
    anchor = config.interferer_source_location
    seed = derive_seed(config.master_seed, "channels")
    receivers = [victim.hub.location] + [relay.location for relay in victim.relays]
    traces: dict[LinkId, ChannelTrace] = {}

    def fetch(tx_subject, tx_loc, rx_loc) -> ChannelTrace:
        link = LinkId(tx_subject, tx_loc, subject, rx_loc)
        if link not in traces:
            traces[link] = downsample(config.channels.trace(link, seed), config.mac.cycle_ms)
        return traces[link]

    for sensor in victim.sensors:
        for rx in receivers:
            fetch(subject, sensor.location, rx)
    for relay in victim.relays:
        fetch(subject, relay.location, victim.hub.location)
    donors = {rx: fetch(subject, anchor, rx) for rx in receivers if rx != anchor}
    for u in interferers:
        base = fetch(u, anchor, anchor)
        for rx, donor in donors.items():
            shadowing = extract_shadowing(donor, config.radio.distance_m(anchor, rx),
                                          config.radio.frequency_hz)
            link = LinkId(u, anchor, subject, rx)
            traces[link] = overlay(base, shadowing, link)
    return traces


# ------------------------------------------------------------------ schedule

@dataclass(frozen=True)
class Interval:
    """Circular interval [start, start + dur) on the cycle."""

    start_ms: float
    dur_ms: float


@dataclass(frozen=True)
class ScheduledTx:
    """One transmission sub-interval of a superframe."""

    kind: str  # "beacon" | "broadcast" | "forward"
    node: NodeSpec
    interval: Interval
    sensor_index: int | None = None


@dataclass(frozen=True)
class SlotSchedule:
    """Concrete superframe of one network at a drawn offset."""

    subject: int
    superframe: int
    offset_ms: float
    cycle_ms: float
    entries: tuple[ScheduledTx, ...]

    def _find(self, kind: str, sensor_index: int) -> Interval:
        for entry in self.entries:
            if entry.kind == kind and entry.sensor_index == sensor_index:
                return entry.interval
        raise ValueError(f"schedule has no {kind} interval for sensor {sensor_index}")

    def broadcast_interval(self, sensor_index: int) -> Interval:
        return self._find("broadcast", sensor_index)

    def forward_interval(self, sensor_index: int) -> Interval:
        return self._find("forward", sensor_index)


def build_schedule(wban: WbanConfig, mac: MacConfig, offset_ms: float,
                   superframe: int = 0) -> SlotSchedule:
    """Place a network's superframe at the given offset, wrapping modulo the cycle."""
    cycle = mac.cycle_ms
    if not 0 <= offset_ms < cycle:
        raise ValueError(f"offset {offset_ms} ms outside [0, {cycle}) ms")
    layout = superframe_layout(wban, mac)
    entries = [ScheduledTx("beacon", wban.hub,
                           Interval(offset_ms % cycle, layout.transmissions[0][1]))]
    for i in range(len(wban.sensors)):
        b_rel, b_dur = layout.broadcast[i]
        f_rel, f_dur = layout.forward[i]
        entries.append(ScheduledTx("broadcast", wban.sensors[i],
                                   Interval((offset_ms + b_rel) % cycle, b_dur), i))
        entries.append(ScheduledTx("forward", wban.relays[i % len(wban.relays)],
                                   Interval((offset_ms + f_rel) % cycle, f_dur), i))
    return SlotSchedule(wban.subject, superframe, offset_ms, cycle, tuple(entries))


def overlap_fraction(a: Interval, b: Interval, cycle_ms: float) -> float:
    """Fraction of interval a covered by interval b on the circular cycle."""
    if a.dur_ms <= 0:
        return 0.0
    delta = (b.start_ms - a.start_ms) % cycle_ms
    return float(overlap_lengths(delta, a.dur_ms, b.dur_ms, cycle_ms)) / a.dur_ms


class Interferer(NamedTuple):
    subject: int
    node: NodeSpec
    fraction: float


def active_interferers(victim_interval: Interval, others: Iterable[SlotSchedule],
                       cycle_ms: float) -> list[Interferer]:
    """All foreign transmissions overlapping a receive interval.

    Returns one entry per overlapping foreign sub-interval with the
    fraction of the victim interval it covers; a transmitter active for
    several overlapping sub-intervals appears once per sub-interval.
    """
    hits = []
    for schedule in others:
        for entry in schedule.entries:
            fraction = overlap_fraction(victim_interval, entry.interval, cycle_ms)
            if fraction > 0:
                hits.append(Interferer(schedule.subject, entry.node, fraction))
    return hits


# ---------------------------------------------------------------- sinr, relay

def compute_sinr(tx_power_dbm: float, gain_db: float, noise: NoiseModel,
                 interferers: Iterable[tuple[float, float, float]] = ()) -> float:
    """Linear SINR of one transmission at one receiver.

    Args:
        tx_power_dbm: Desired transmitter power (-inf mutes the signal).
        gain_db: Channel gain of the desired link.
        noise: Receiver noise floor.
        interferers: (power_dbm, gain_db, overlap_fraction) per interfering
            transmission; fractions weight each interferer by the share of
            the packet interval it collides with.

    An empty interferer list yields the plain SNR.
    """
    for name, value in (("tx_power_dbm", tx_power_dbm), ("gain_db", gain_db)):
        if math.isnan(value) or value == math.inf:
            raise ValueError(f"{name} must be a real value, got {value}")
    signal_mw = 10.0 ** (tx_power_dbm / 10.0) * 10.0 ** (gain_db / 10.0)
    denominator = noise.noise_mw
    for power_dbm, intf_gain_db, fraction in interferers:
        if math.isnan(power_dbm) or math.isnan(intf_gain_db) or math.isnan(fraction):
            raise ValueError("interferer terms must not be NaN")
        if power_dbm == math.inf or intf_gain_db == math.inf:
            raise ValueError("interferer power and gain must be below +inf")
        if not -1e-9 <= fraction <= 1 + 1e-9:
            raise ValueError(f"overlap fraction {fraction} outside [0, 1]")
        fraction = min(max(fraction, 0.0), 1.0)
        denominator += fraction * 10.0 ** (power_dbm / 10.0) * 10.0 ** (intf_gain_db / 10.0)
    return signal_mw / denominator


def select_relay(nu_sr1: float, nu_r1h: float, nu_sr2: float, nu_r2h: float,
                 ) -> tuple[int, float]:
    """Pick the relay whose weaker hop is strongest.

    Args:
        nu_sr1, nu_r1h: Linear SINR of relay 1's incoming and outgoing hop.
        nu_sr2, nu_r2h: Same for relay 2.

    Returns:
        (chosen relay 1 or 2, bottleneck SINR of that relay). Ties go to
        relay 1.
    """
    values = (nu_sr1, nu_r1h, nu_sr2, nu_r2h)
    if any(math.isnan(v) or v <= 0 or v == math.inf for v in values):
        raise ValueError(f"hop SINRs must be positive and finite, got {values}")
    min1, min2 = min(nu_sr1, nu_r1h), min(nu_sr2, nu_r2h)
    return (1, min1) if min1 >= min2 else (2, min2)


@dataclass(frozen=True)
class RelayDecision:
    """Outcome of one sensor's packet in one superframe."""

    epoch: int
    sensor_index: int
    sensor_location: BodyLocation
    nu_sr: tuple[float, float]
    nu_rh: tuple[float, float]
    nu_min: tuple[float, float]
    chosen_relay: int
    nu_direct: float
    single: float
    cooperative: float


def evaluate_superframe(wban: WbanConfig, schedules: Sequence[SlotSchedule],
                        channels: dict[LinkId, ChannelTrace], noise: NoiseModel, epoch: int,
                        anchor: BodyLocation = BodyLocation.LEFT_HIP,
                        ) -> list[RelayDecision]:
    """Evaluate every sensor packet of one network in one superframe.

    Uses the epoch's block gains throughout: the sensor broadcast is heard
    at the hub and at both relays (interference taken at each receiver's
    own location over the broadcast sub-interval, on the channel from the
    foreign network's ``anchor`` location to that receiver), the forward
    hop is heard at the hub over the forward sub-interval, and relay
    selection works on the same block gains, as it happens just before the
    sensor transmission. Relays muted to -inf power yield zero-quality
    branches instead of an error, which reduces the cooperative scheme to
    the single-link one.
    """
    victim = next((s for s in schedules if s.subject == wban.subject), None)
    if victim is None:
        raise ValueError(f"no schedule for subject {wban.subject}")
    others = [s for s in schedules if s.subject != wban.subject]
    cycle = victim.cycle_ms
    subject, hub_loc = wban.subject, wban.hub.location

    def gain_db(link):
        return float(channels[link].samples[epoch])

    def gain(tx_loc, rx_loc):
        return gain_db(LinkId(subject, tx_loc, subject, rx_loc))

    def interference(interval, rx_location):
        return [(hit.node.tx_power_dbm,
                 gain_db(LinkId(hit.subject, anchor, subject, rx_location)),
                 hit.fraction)
                for hit in active_interferers(interval, others, cycle)]

    decisions = []
    for i, sensor in enumerate(wban.sensors):
        broadcast = victim.broadcast_interval(i)
        forward = victim.forward_interval(i)
        hub_b = interference(broadcast, hub_loc)
        hub_f = interference(forward, hub_loc)
        nu_direct = compute_sinr(sensor.tx_power_dbm, gain(sensor.location, hub_loc),
                                 noise, hub_b)
        nu_sr, nu_rh = [], []
        for relay in wban.relays:
            nu_sr.append(compute_sinr(
                sensor.tx_power_dbm, gain(sensor.location, relay.location),
                noise, interference(broadcast, relay.location)))
            nu_rh.append(compute_sinr(
                relay.tx_power_dbm, gain(relay.location, hub_loc), noise, hub_f))
        # Same max-min rule as select_relay, but tolerating muted relays.
        mins = (min(nu_sr[0], nu_rh[0]), min(nu_sr[1], nu_rh[1]))
        chosen = 1 if mins[0] >= mins[1] else 2
        single, cooperative = nu_direct, max(nu_direct, mins[chosen - 1])
        decisions.append(RelayDecision(
            epoch, i, sensor.location, (nu_sr[0], nu_sr[1]), (nu_rh[0], nu_rh[1]),
            mins, chosen, nu_direct, single, cooperative))
    return decisions


# ------------------------------------------------------------ level crossings

def level_crossing_rate_reference(series: SinrSeries, threshold_db: float) -> float:
    """Downward crossing rate of one threshold, by a boolean scan of the series.

    Sample i crosses when v[i-1] >= threshold > v[i]; the rate is the count
    over the time from the first to the last crossing, 0 Hz for fewer than
    two.
    """
    values = series.values_db
    down = (values[:-1] >= threshold_db) & (values[1:] < threshold_db)
    crossing_idx = np.nonzero(down)[0] + 1
    n = int(crossing_idx.size)
    if n <= 1:
        return 0.0
    # Sample k lies at grid time (start_index + k) * period_ms.
    crossing_times = (series.start_index + crossing_idx) * series.period_ms
    return n / (float(crossing_times[-1] - crossing_times[0]) / 1000.0)


# -------------------------------------------------------- interference weights

def interference_weights_reference(config, offsets=None,
                                   ) -> dict[tuple[int, int, str], np.ndarray]:
    """Per-epoch interference weights, keyed by (interferer, sensor index, kind).

    For each interferer and each victim receive sub-interval, the foreign
    transmissions are added in layout order over every epoch: each one's
    circular overlap, reduced with ``%``, as a fraction of the sub-interval,
    times its power. ``offsets`` maps each subject to its per-epoch
    superframe offsets in [0, cycle); by default they come from each
    subject's "offsets" stream, as in the engine.
    """
    victim, mac, epochs = config.wban(config.victim_subject), config.mac, config.epochs
    interferers = tuple(config.wban(s) for s in config.interferer_subjects)
    cycle = mac.cycle_ms
    if offsets is None:
        offsets = {w.subject: substream(config.master_seed, "offsets", w.subject)
                   .uniform(0.0, cycle, epochs)
                   for w in (victim, *interferers)}
    v_layout = superframe_layout(victim, mac)
    v_intervals = {}
    for i in range(len(victim.sensors)):
        v_intervals[(i, "broadcast")] = v_layout.broadcast[i]
        v_intervals[(i, "forward")] = v_layout.forward[i]
    weights: dict[tuple[int, int, str], np.ndarray] = {}
    for interferer in interferers:
        i_layout = superframe_layout(interferer, mac)
        delta_base = offsets[interferer.subject] - offsets[victim.subject]
        for (i, kind), (rel_a, dur_a) in v_intervals.items():
            weighted = np.zeros(epochs)
            for rel_b, dur_b, node in i_layout.transmissions:
                power_mw = 10.0 ** (node.tx_power_dbm / 10.0)
                delta = (delta_base + rel_b - rel_a) % cycle
                weighted += (overlap_lengths(delta, dur_a, dur_b, cycle) / dur_a) * power_mw
            weights[(interferer.subject, i, kind)] = weighted
    return weights


def sinr_series_reference(config, channels: dict[LinkId, ChannelTrace], start_index: int,
                          ) -> dict[int, dict[str, np.ndarray]]:
    """Per-sensor SINR in dB, {sensor: {"single", "coop"}}, one sensor at a time.

    Each link's window is converted to linear power once; the interference
    at a receiver adds the interferers in ``config.interferer_subjects``
    order, from zeros, with the weights of ``interference_weights_reference``.
    """
    victim, epochs = config.wban(config.victim_subject), config.epochs
    window = slice(start_index, start_index + epochs)
    subject, hub_loc = victim.subject, victim.hub.location
    anchor = config.interferer_source_location
    weights = interference_weights_reference(config)
    gains: dict[LinkId, np.ndarray] = {}

    def linear_gain(link: LinkId) -> np.ndarray:
        if link not in gains:
            gains[link] = 10.0 ** (channels[link].samples[window] / 10.0)
        return gains[link]

    def link_gain(tx_loc: BodyLocation, rx_loc: BodyLocation) -> np.ndarray:
        return linear_gain(LinkId(subject, tx_loc, subject, rx_loc))

    def interference_mw(rx_loc: BodyLocation, i: int, kind: str) -> np.ndarray:
        total = np.zeros(epochs)
        for u in config.interferer_subjects:
            total += (linear_gain(LinkId(u, anchor, subject, rx_loc))
                      * weights[(u, i, kind)])
        return total

    noise_mw = config.noise.noise_mw
    series = {}
    for i, sensor in enumerate(victim.sensors):
        p_sensor = sensor.tx_power_mw
        den_hub_b = noise_mw + interference_mw(hub_loc, i, "broadcast")
        den_hub_f = noise_mw + interference_mw(hub_loc, i, "forward")
        nu_direct = p_sensor * link_gain(sensor.location, hub_loc) / den_hub_b
        branches = []
        for relay in victim.relays:
            den_relay_b = noise_mw + interference_mw(relay.location, i, "broadcast")
            nu_sr = p_sensor * link_gain(sensor.location, relay.location) / den_relay_b
            nu_rh = relay.tx_power_mw * link_gain(relay.location, hub_loc) / den_hub_f
            branches.append(np.minimum(nu_sr, nu_rh))
        coop = np.maximum(nu_direct, np.maximum(branches[0], branches[1]))
        series[i] = {"single": 10.0 * np.log10(nu_direct), "coop": 10.0 * np.log10(coop)}
    return series


# ------------------------------------------------------- interference-free model

def outage_single_closed_form(x: float, mean: float, sd: float) -> float:
    """P(SINR < x) of the direct link alone: F(x) = Phi((x - mean) / sd).

    With no interferer a packet's SINR in dB is tx power + on-body gain -
    noise floor, and every synthetic on-body gain is N(mean_gain, sd^2) in
    every epoch, whatever the coherence time.
    """
    return 0.5 * (1.0 + math.erf((x - mean) / (sd * math.sqrt(2.0))))


def outage_coop_closed_form(x: float, mean: float, sd: float) -> float:
    """P(max(direct, min(sr1, rh1), min(sr2, rh2)) < x) = F (1 - (1 - F)^2)^2.

    The five links are independent with the same law F, and a relay
    branch is below x unless both of its hops are at or above it.
    """
    f = outage_single_closed_form(x, mean, sd)
    return f * (1.0 - (1.0 - f) ** 2) ** 2


def closed_form_quantile(cdf, probability: float, lo: float, hi: float) -> float:
    """The x in [lo, hi] where an increasing ``cdf`` reaches ``probability``, by bisection."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < probability:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ----------------------------------------------------------- synthetic traces

def synthetic_samples_reference(params: SyntheticChannelParams, link: LinkId,
                                duration_ms: float, sample_period_ms: float,
                                seed: int) -> np.ndarray:
    """The samples of ``generate_synthetic``, by the plain AR(1) recurrence.

    The shocks are drawn and scaled as the generator draws them; then each
    deviation is ``prev = x + rho * prev`` from ``prev = 0.0``, one float64
    step at a time, and the mean is added. perfbench's golden digests of
    synthetic runs and ``gen-traces`` rest on these bytes.
    """
    n = int(math.floor(duration_ms / sample_period_ms + 1e-9))
    rho = math.exp(-sample_period_ms / params.coherence_time_ms)
    shocks = substream(seed, "trace", str(link)).standard_normal(n)
    innovation = params.shadow_sigma_db * math.sqrt(1.0 - rho * rho)
    samples = np.empty(n)
    prev = 0.0
    for i, w in enumerate(shocks.tolist()):
        x = w * (params.shadow_sigma_db if i == 0 else innovation)
        prev = x + rho * prev
        samples[i] = params.mean_gain_db + prev
    return samples


# ------------------------------------------------------------------ trace CSVs

def save_trace_reference(trace: ChannelTrace, path) -> None:
    """Write a trace CSV one row at a time: timestamp ``float(i * period)``."""
    lines = [f"link={trace.link},period_ms={float(trace.sample_period_ms)!r}"]
    for i, gain in enumerate(trace.samples):
        lines.append(f"{float(i * trace.sample_period_ms)!r},{float(gain)!r}")
    Path(path).write_text("\n".join(lines) + "\n")


_TRACE_HEADER_RE = re.compile(r"^link=(?P<link>[^,]+),period_ms=(?P<period>[^,\s]+)$")


def load_trace_reference(path) -> ChannelTrace:
    """Read a trace CSV one row at a time; the first bad row raises.

    Blank rows are skipped. Each other row must split into two ``float()``
    fields, its timestamp must lie within 1e-6 periods of ``k * period``
    for the k-th data row, and its gain must be finite.
    """
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise TraceError(f"cannot read trace file {path}: {exc}") from exc
    if not lines:
        raise TraceError(f"{path}:1: empty file, expected a header line")
    header = _TRACE_HEADER_RE.match(lines[0].strip())
    if header is None:
        raise TraceError(f"{path}:1: malformed header {lines[0]!r}")
    try:
        link = LinkId.parse(header.group("link"))
        period = float(header.group("period"))
    except ValueError as exc:
        raise TraceError(f"{path}:1: {exc}") from exc
    if not (math.isfinite(period) and period > 0):
        raise TraceError(f"{path}:1: period_ms must be positive, got {header.group('period')}")

    gains = []
    tol = 1e-6 * period
    for lineno, raw in enumerate(lines[1:], start=2):
        text = raw.strip()
        if not text:
            continue
        parts = text.split(",")
        if len(parts) != 2:
            raise TraceError(f"{path}:{lineno}: expected '<t_ms>,<gain_db>', got {raw!r}")
        try:
            t, gain = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise TraceError(f"{path}:{lineno}: {exc}") from exc
        expected_t = len(gains) * period
        if not abs(t - expected_t) <= tol:
            raise TraceError(f"{path}:{lineno}: timestamp {t} is not the expected "
                             f"multiple {expected_t} of period {period}")
        if not math.isfinite(gain):
            raise TraceError(f"{path}:{lineno}: non-finite gain {parts[1]!r}")
        gains.append(gain)
    if not gains:
        raise TraceError(f"{path}:2: no data rows")
    return ChannelTrace(link, period, np.array(gains))

"""Outage probability and level crossing statistics of SINR series.

Both metrics are computed empirically from per-packet SINR samples:
outage is the fraction of packets strictly below a threshold, and the
level crossing rate counts downward threshold crossings per second of
crossing-to-crossing time. Curves over a threshold grid are the unit of
comparison between transmission schemes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class MetricsError(Exception):
    """Invalid series data or an unanswerable metrics query."""


@dataclass(frozen=True)
class SinrSeries:
    """Per-packet SINR samples in dB, one per ``period_ms`` from grid index ``start_index``."""

    values_db: np.ndarray
    period_ms: float
    start_index: int

    def __post_init__(self):
        values = np.asarray(self.values_db, dtype=np.float64)
        if values.ndim != 1 or values.size == 0:
            raise MetricsError("series values must be a 1-D array of at least one sample")
        if not np.all(np.isfinite(values)):
            raise MetricsError("series values must be finite")
        if not (math.isfinite(self.period_ms) and self.period_ms > 0):
            raise MetricsError(f"series period must be positive, got {self.period_ms} ms")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values_db", values)

    @property
    def n_samples(self) -> int:
        return int(self.values_db.size)

    def cadence_ms(self) -> float:
        """Uniform sample spacing."""
        return self.period_ms


@dataclass(frozen=True)
class MetricsCurve:
    """Metric values over a strictly increasing threshold grid in dB."""

    kind: str  # "outage" | "lcr"
    thresholds_db: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.kind not in ("outage", "lcr"):
            raise MetricsError(f"unknown curve kind {self.kind!r}")
        thresholds = _threshold_array(self.thresholds_db)
        values = np.asarray(self.values, dtype=np.float64)
        if values.shape != thresholds.shape:
            raise MetricsError("thresholds and values must be 1-D arrays of equal length")
        if self.kind == "outage":
            if not (np.all(values >= 0.0) and np.all(values <= 1.0)):
                raise MetricsError("outage probabilities must lie in [0, 1]")
            if thresholds.size > 1 and np.any(np.diff(values) < -1e-12):
                raise MetricsError("outage curve must be non-decreasing")
        else:
            if not np.all(values >= 0.0):
                raise MetricsError("crossing rates must be nonnegative")
        for name, arr in (("thresholds_db", thresholds), ("values", values)):
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def _threshold_array(thresholds_db) -> np.ndarray:
    """Thresholds as float64; raises unless 1-D, non-empty, strictly increasing, finite."""
    thresholds = np.asarray(thresholds_db, dtype=np.float64)
    if thresholds.ndim != 1 or thresholds.size == 0:
        raise MetricsError("thresholds must be a non-empty 1-D array")
    if thresholds.size > 1 and not np.all(np.diff(thresholds) > 0):
        raise MetricsError("thresholds must be strictly increasing")
    if not np.all(np.isfinite(thresholds)):
        raise MetricsError("thresholds must be finite")
    return thresholds


def threshold_grid(start: float = -30.0, stop: float = 50.0, step: float = 0.5,
                   ) -> np.ndarray:
    """SINR threshold grid from start to stop in dB, both ends included.

    Raises ValueError unless start < stop are finite and step is positive
    and divides the span.
    """
    if not (math.isfinite(stop - start) and stop > start and step > 0):
        raise ValueError(f"threshold grid needs finite start < stop and a positive step, "
                         f"got start {start}, stop {stop}, step {step}")
    count = round((stop - start) / step)
    if abs(start + count * step - stop) > 1e-9:
        raise ValueError(f"step {step} does not divide the span from start {start} "
                         f"to stop {stop}")
    return np.linspace(start, stop, count + 1)


def empirical_outage(values_db: np.ndarray, thresholds_db: np.ndarray | None = None,
                     ) -> MetricsCurve:
    """Outage curve from a bag of SINR samples (order does not matter)."""
    if thresholds_db is None:
        thresholds_db = threshold_grid()
    values = np.sort(np.asarray(values_db, dtype=np.float64))
    if values.size == 0:
        raise MetricsError("outage needs at least one sample")
    counts = np.searchsorted(values, np.asarray(thresholds_db, dtype=np.float64),
                             side="left")
    return MetricsCurve("outage", thresholds_db, counts / values.size)


def threshold_at_outage(curve: MetricsCurve, probability: float) -> float:
    """Invert an outage curve: the threshold where it reaches a probability.

    Linear interpolation on the (threshold, probability) polyline; if the
    probability falls on a flat segment the left endpoint is returned. A
    probability outside the curve's value range raises.
    """
    if curve.kind != "outage":
        raise MetricsError(f"threshold_at_outage needs an outage curve, got {curve.kind!r}")
    if not 0 < probability < 1:
        raise MetricsError(f"probability must lie in (0, 1), got {probability}")
    values, thresholds = curve.values, curve.thresholds_db
    if probability < values[0] or probability > values[-1]:
        raise MetricsError(f"probability {probability} not bracketed by curve values "
                           f"[{values[0]}, {values[-1]}]")
    j = int(np.searchsorted(values, probability, side="left"))
    if values[j] == probability:
        return float(thresholds[j])
    t0, t1 = thresholds[j - 1], thresholds[j]
    v0, v1 = values[j - 1], values[j]
    return float(t0 + (probability - v0) * (t1 - t0) / (v1 - v0))


# Downward steps expanded into grid cells at a time: bounds the temporary arrays.
_STEP_BLOCK = 2048


def _crossing_rates(series: SinrSeries, thresholds_db) -> np.ndarray:
    """Downward crossing rate at every threshold of a grid, from one pass over the series.

    A downward step from v[k] to v[k+1] crosses, at sample k+1, every
    threshold t with v[k] >= t > v[k+1]. On a strictly increasing grid
    those are the cells from searchsorted(v[k+1], "right") up to, not
    including, searchsorted(v[k], "right"). The steps are expanded into
    cells, counted, and the first and last crossing sample kept per cell.
    """
    thresholds = _threshold_array(thresholds_db)
    rates = np.zeros(thresholds.size)
    if series.n_samples < 2:
        return rates
    values = series.values_db
    at = np.flatnonzero(values[1:] < values[:-1]) + 1
    low = np.searchsorted(thresholds, values[at], side="right")
    width = np.searchsorted(thresholds, values[at - 1], side="right") - low
    count = np.zeros(thresholds.size, dtype=np.int64)
    first = np.full(thresholds.size, series.n_samples)
    last = np.full(thresholds.size, -1)
    for b in range(0, at.size, _STEP_BLOCK):
        w = width[b:b + _STEP_BLOCK]
        ends = np.cumsum(w)
        cells = np.arange(ends[-1]) + np.repeat(low[b:b + _STEP_BLOCK] - (ends - w), w)
        samples = np.repeat(at[b:b + _STEP_BLOCK], w)
        count += np.bincount(cells, minlength=thresholds.size)
        np.minimum.at(first, cells, samples)
        np.maximum.at(last, cells, samples)
    crossed = count >= 2
    # Sample k lies at grid time (start_index + k) * period_ms.
    start, period = series.start_index, series.period_ms
    span_s = ((start + last[crossed]) * period - (start + first[crossed]) * period) / 1000.0
    rates[crossed] = count[crossed] / span_s
    return rates


def level_crossing_rate(series: SinrSeries, threshold_db: float) -> float:
    """Downward crossing rate of a threshold, in crossings per second.

    A crossing happens at sample i when the series was at or above the
    threshold at i-1 and below it at i. The rate is the crossing count
    divided by the total time between the first and the last crossing;
    fewer than two crossings give 0 Hz. Requires a finite threshold.
    """
    return float(_crossing_rates(series, [threshold_db])[0])


def lcr_curve(series: SinrSeries, thresholds_db: np.ndarray | None = None,
              ) -> MetricsCurve:
    """Level crossing rate over a threshold grid, by the rule of level_crossing_rate."""
    if thresholds_db is None:
        thresholds_db = threshold_grid()
    return MetricsCurve("lcr", thresholds_db, _crossing_rates(series, thresholds_db))


def write_curve_csv(curve: MetricsCurve, path, scheme: str, subject) -> None:
    """Write a curve with its identifying header line."""
    lines = [f"kind,{curve.kind},scheme,{scheme},subject,{subject}"]
    # tolist() gives Python floats, whose repr is that of float(np.float64).
    for threshold, value in zip(curve.thresholds_db.tolist(), curve.values.tolist()):
        lines.append(f"{threshold!r},{value!r}")
    Path(path).write_text("\n".join(lines) + "\n")

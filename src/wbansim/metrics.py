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
    """Per-packet SINR samples in dB, one per ``period_ms`` from grid index ``start_index``.

    ``values_db`` is one series or a run's (sensors, epochs) block, one row
    per sensor. A block's level crossing rate is the mean over its sensors of
    each sensor's rate by the span rule of level_crossing_rate, from one pass
    over the block.
    """

    values_db: np.ndarray
    period_ms: float
    start_index: int

    def cadence_ms(self) -> float:
        """Uniform sample spacing."""
        return self.period_ms


@dataclass(frozen=True)
class MetricsCurve:
    """Metric values over a threshold grid in dB; ``kind`` is "outage" or "lcr"."""

    kind: str
    thresholds_db: np.ndarray
    values: np.ndarray


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


def empirical_outage(values_db: np.ndarray, thresholds_db: np.ndarray) -> MetricsCurve:
    """Outage curve from a bag of SINR samples (order does not matter)."""
    values = np.sort(np.asarray(values_db, dtype=np.float64))
    if values.size == 0:
        raise MetricsError("outage needs at least one sample")
    counts = np.searchsorted(values, thresholds_db, side="left")
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


def _levels(values: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """searchsorted(thresholds, values, side="right"): the thresholds at or below each value.

    The level is guessed from the mean grid spacing, kept within [0, size],
    then moved one cell at a time until thresholds[level - 1] <= value <
    thresholds[level] (with -inf and +inf past the ends), so it is exact on
    any grid; on an evenly spaced grid one pass confirms the guess.
    """
    size = thresholds.size
    if size == 1:
        return (values >= thresholds[0]).astype(np.intp)
    # On a subnormal span the scale is inf and the guess NaN or infinite; the clamp keeps
    # every level in range and the corrections walk it home.
    scale = (size - 1) / (float(thresholds[-1]) - float(thresholds[0]))
    with np.errstate(over="ignore", invalid="ignore"):
        guess = (values - thresholds[0]) * scale
    levels = np.fmax(np.fmin(guess, size - 1.0), -1.0).astype(np.intp) + 1
    edges = np.concatenate(([-np.inf], thresholds, [np.inf]))
    while True:
        up = values >= edges[1:][levels]
        down = values < edges[levels]
        if not (up.any() or down.any()):
            return levels
        levels += up
        levels -= down


def _first_steps(high: np.ndarray, low: np.ndarray, cells: np.ndarray, size: int,
                 ) -> np.ndarray:
    """Index of the first downward step that crosses each of ``cells``.

    Step j falls from level high[j] to low[j] and crosses the cells c with
    low[j] <= c < high[j]; between steps the series does not fall, so
    high[j] >= low[j - 1]. Split the steps into runs where the running
    maximum of high rises. Within a run of maximum top, step j has crossed
    c, or an earlier step of the run has, exactly when the run's minimum of
    low so far is <= c < top. So a cell is first crossed in the earliest run
    that reaches it, at the first step where that run's minimum falls to it.
    The key top * (size + 1) - (the run's minimum so far) never decreases,
    so one searchsorted finds that step. Levels lie in [0, size], and every
    cell must be crossed; for a block of rows on a grid of g thresholds,
    _crossing_rates stacks the rows' levels into [0, rows * (g + 1) - 1].
    """
    width = size + 1
    top = np.maximum.accumulate(high)
    # Less top * width puts each run below every earlier one: the minimum restarts per run.
    key = -np.minimum.accumulate(low - top * width)
    ends = np.append(np.flatnonzero(top[1:] > top[:-1]), top.size - 1)
    tops = top[ends]
    floors = tops * width - key[ends]
    reached = (floors[:, None] <= cells) & (cells < tops[:, None])
    return np.searchsorted(key, tops[reached.argmax(axis=0)] * width - cells)


def _crossing_rates(series: SinrSeries, thresholds: np.ndarray) -> np.ndarray:
    """Downward crossing rate at every threshold of a grid, from one pass over the series.

    A downward step from v[k] to v[k+1] crosses, at sample k+1, every
    threshold t with v[k] >= t > v[k+1]. On a strictly increasing grid
    those are the cells from the level of v[k+1] up to, not including, the
    level of v[k], where a level counts the thresholds at or below a value.
    A block's rows are one series with row r's levels raised by r * (size +
    1): each row keeps a band of levels of its own, and the step from one
    row into the next goes up and crosses nothing. A difference array counts
    the crossings per cell, _first_steps finds each cell's first and last
    crossing sample, and the rows' rates are averaged. The grid must be
    strictly increasing and finite, as ExperimentConfig checks.
    """
    values = np.atleast_2d(series.values_db)
    rows, n = values.shape
    size = thresholds.size
    width = size + 1
    levels = (_levels(values, thresholds) + np.arange(rows)[:, None] * width).ravel()
    # Every band's top level is a cell that no step crosses; the last band's is left out.
    cells = rows * width - 1
    at = np.flatnonzero(levels[1:] < levels[:-1]) + 1
    high, low = levels[at - 1], levels[at]
    count = np.cumsum(np.bincount(low, minlength=cells + 1)
                      - np.bincount(high, minlength=cells + 1))[:cells]
    crossed = np.flatnonzero(count >= 2)
    if crossed.size == 0:
        return np.zeros(size)
    # Samples within the row: sample k of a row lies at grid time (start_index + k) * period_ms.
    row_start = crossed // width * n
    first = at[_first_steps(high, low, crossed, cells)] - row_start
    # The last crossing is the first one of the steps reversed and turned upside down.
    last = at[::-1][_first_steps(cells - low[::-1], cells - high[::-1], cells - 1 - crossed,
                                 cells)] - row_start
    start, period = series.start_index, series.period_ms
    span_s = ((start + last) * period - (start + first) * period) / 1000.0
    rates = np.zeros(rows * width)
    rates[crossed] = count[crossed] / span_s
    return rates.reshape(rows, width)[:, :size].mean(axis=0)


def level_crossing_rate(series: SinrSeries, threshold_db: float) -> float:
    """Downward crossing rate of a threshold, in crossings per second.

    A crossing happens at sample i when the series was at or above the
    threshold at i-1 and below it at i. The rate is the crossing count
    divided by the total time between the first and the last crossing;
    fewer than two crossings give 0 Hz. A block's rate is the mean over its
    sensors of each sensor's rate, from one pass over the block. Requires a
    finite threshold.
    """
    return float(_crossing_rates(series, np.array([threshold_db]))[0])


def lcr_curve(series: SinrSeries, thresholds_db: np.ndarray) -> MetricsCurve:
    """Level crossing rate over a threshold grid, by the rule of level_crossing_rate.

    A block's curve is the mean over its sensors of each sensor's curve, from
    one pass over the block.
    """
    return MetricsCurve("lcr", thresholds_db, _crossing_rates(series, thresholds_db))


def write_curve_csv(curve: MetricsCurve, path, scheme: str, subject) -> None:
    """Write a curve with its identifying header line."""
    # tolist() gives Python floats, whose repr is that of float(np.float64).
    rows = map(",".join, zip(map(repr, curve.thresholds_db.tolist()),
                             map(repr, curve.values.tolist())))
    Path(path).write_text(f"kind,{curve.kind},scheme,{scheme},subject,{subject}\n"
                          + "\n".join(rows) + "\n")

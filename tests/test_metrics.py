import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import read_curve_csv
from oracle import level_crossing_rate_reference
from wbansim.metrics import (MetricsCurve, MetricsError, SinrSeries, _levels,
                             empirical_outage, lcr_curve, level_crossing_rate,
                             threshold_at_outage, threshold_grid, write_curve_csv)


def series(values, period_ms=120.0):
    values = np.asarray(values, dtype=float)
    return SinrSeries(values, period_ms, 0)


# --------------------------------------------------------------------- series

def test_series_cadence():
    assert series([1.0, 2.0, 3.0]).cadence_ms() == 120.0
    assert series([1.0]).cadence_ms() == 120.0
    # Sample k of a series lies at grid time (start_index + k) * period_ms.
    late = SinrSeries(np.zeros(4), 120.0, 5)
    assert (late.start_index, late.period_ms) == (5, 120.0)


# --------------------------------------------------------------------- outage

def test_default_grid():
    grid = threshold_grid()
    assert grid.size == 161
    assert grid[0] == -30.0 and grid[-1] == 50.0
    assert np.all(np.diff(grid) == 0.5)


def test_threshold_grid_default_and_errors():
    np.testing.assert_array_equal(threshold_grid(), np.linspace(-30.0, 50.0, 161))
    np.testing.assert_array_equal(threshold_grid(0.0, 10.0, 5.0), [0.0, 5.0, 10.0])
    for start, stop, step in ((0.0, 0.0, 1.0), (1.0, 0.0, 1.0), (0.0, 1.0, 0.0),
                              (0.0, math.inf, 1.0)):
        with pytest.raises(ValueError, match="start < stop"):
            threshold_grid(start, stop, step)
    with pytest.raises(ValueError, match="does not divide"):
        threshold_grid(0.0, 10.0, 3.0)


def test_outage_counts_strictly_below():
    curve = empirical_outage(np.array([1.0, 2.0, 3.0, 4.0]),
                             np.array([0.5, 2.0, 2.5, 4.0, 9.0]))
    np.testing.assert_allclose(curve.values, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_outage_curve_is_monotone():
    rng = np.random.default_rng(2)
    curve = empirical_outage(rng.normal(10.0, 5.0, 500), threshold_grid())
    assert curve.kind == "outage"
    assert np.all(np.diff(curve.values) >= 0.0)
    assert curve.values[0] == 0.0 and curve.values[-1] == 1.0


# ----------------------------------------------------------------- inversion

def test_threshold_interpolates_linearly():
    curve = MetricsCurve("outage", np.array([0.0, 5.0]), np.array([0.05, 0.15]))
    assert threshold_at_outage(curve, 0.10) == pytest.approx(2.5)
    assert threshold_at_outage(curve, 0.05) == 0.0
    assert threshold_at_outage(curve, 0.15) == 5.0


def test_threshold_flat_run_returns_left_endpoint():
    curve = MetricsCurve("outage", np.array([0.0, 1.0, 2.0, 3.0]),
                         np.array([0.05, 0.1, 0.1, 0.2]))
    assert threshold_at_outage(curve, 0.1) == 1.0


def test_threshold_requires_bracketing():
    curve = MetricsCurve("outage", np.array([0.0, 5.0]), np.array([0.2, 0.4]))
    with pytest.raises(MetricsError, match="not bracketed"):
        threshold_at_outage(curve, 0.1)
    with pytest.raises(MetricsError, match="not bracketed"):
        threshold_at_outage(curve, 0.5)
    with pytest.raises(MetricsError, match=r"\(0, 1\)"):
        threshold_at_outage(curve, 0.0)
    with pytest.raises(MetricsError, match="outage curve"):
        threshold_at_outage(MetricsCurve("lcr", np.array([0.0]), np.array([0.0])), 0.1)


# ------------------------------------------------------------------ crossings

def test_lcr_fixture():
    fixture = series([10.0, 2.0, 10.0, 2.0, 10.0])
    # Crossings at 120 ms and 360 ms: 2 crossings / 0.24 s.
    assert level_crossing_rate(fixture, 5.0) == pytest.approx(2.0 / 0.24, rel=1e-12)


def test_lcr_boundary_counts_at_threshold_as_up():
    fixture = series([5.0, 4.0, 5.0, 4.0, 5.0, 4.0])
    # Crossings at 120, 360 and 600 ms.
    assert level_crossing_rate(fixture, 5.0) == pytest.approx(3.0 / 0.48, rel=1e-12)


def test_lcr_degenerate_cases():
    assert level_crossing_rate(series([10.0, 2.0, 2.0, 2.0]), 5.0) == 0.0
    assert level_crossing_rate(series([7.0, 7.0, 7.0]), 5.0) == 0.0
    assert level_crossing_rate(series([1.0, 1.0, 1.0]), 5.0) == 0.0
    assert level_crossing_rate(series([10.0]), 5.0) == 0.0
    grid = threshold_grid()
    np.testing.assert_array_equal(lcr_curve(series([10.0]), grid).values, np.zeros(161))
    np.testing.assert_array_equal(lcr_curve(series([7.0, 7.0, 7.0]), grid).values,
                                  np.zeros(161))


def test_lcr_curve_over_grid():
    curve = lcr_curve(series([10.0, 2.0, 10.0, 2.0, 10.0]), np.array([0.0, 5.0, 20.0]))
    assert curve.kind == "lcr"
    np.testing.assert_allclose(curve.values, [0.0, 2.0 / 0.24, 0.0])


grids = st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=30, unique=True).map(
    lambda values: np.array(sorted(values)))
one_threshold_grids = st.floats(-40.0, 40.0).map(lambda t: np.array([t]))


@st.composite
def tiny_grids(draw):
    """Adjacent floats from a drawn start: spans of a few ulps, subnormal around 0."""
    grid = [draw(st.one_of(st.just(0.0), st.just(-5e-324), st.floats(-40.0, 40.0)))]
    for _ in range(draw(st.integers(1, 4))):
        grid.append(np.nextafter(grid[-1], math.inf))
    return np.array(grid)


any_grid = st.one_of(st.just(threshold_grid()), grids, one_threshold_grids, tiny_grids())


def near(grid):
    """Grid points and their neighbouring floats."""
    return st.sampled_from(grid.tolist()).flatmap(lambda t: st.sampled_from(
        [float(np.nextafter(t, -math.inf)), t, float(np.nextafter(t, math.inf))]))


def _row(draw, grid):
    """Flat runs on and off grid points, or a trend of small steps up or down."""
    if draw(st.booleans()):
        level = st.one_of(near(grid), st.floats(-45.0, 45.0))
        runs = draw(st.lists(st.tuples(level, st.integers(1, 4)), min_size=1, max_size=60))
        return np.repeat([v for v, _ in runs], [k for _, k in runs])
    trend = draw(st.sampled_from([-1.0, 1.0]))
    steps = draw(st.lists(st.floats(-1.0, 2.0), min_size=1, max_size=120))
    return draw(st.floats(-45.0, 45.0)) + trend * np.cumsum(steps)


@st.composite
def series_on_grid(draw):
    """A series or block and its grid, sampled at one of several periods from a drawn
    grid index.

    The block has 1-3 rows of the first row's length (the others are cut or
    repeated to it); one row may also come as a 1-D series. Each row either
    hits grid points and stays flat in runs, or trends up or down in small
    steps, setting many new highs or lows. Grids include the default one,
    one-threshold grids and grids spanning a few ulps.
    """
    grid = draw(any_grid)
    rows = [_row(draw, grid) for _ in range(draw(st.integers(1, 3)))]
    values = np.array([np.resize(row, rows[0].size) for row in rows])
    if len(rows) == 1 and draw(st.booleans()):
        values = values[0]
    period = draw(st.sampled_from([0.5, 1.0, 7.5, 15.0, 120.0]))
    return SinrSeries(values, period, draw(st.integers(0, 40_000))), grid


def row_series(sinr):
    """Each row of a series or block as a series of its own."""
    return [SinrSeries(row, sinr.period_ms, sinr.start_index)
            for row in np.atleast_2d(sinr.values_db)]


@given(any_grid.flatmap(lambda grid: st.tuples(st.just(grid), st.lists(
    st.one_of(near(grid), st.floats(-1e300, 1e300)), max_size=50))))
def test_levels_equal_searchsorted_right(case):
    grid, values = case
    values = np.array(values, dtype=np.float64)
    want = np.searchsorted(grid, values, side="right")
    assert _levels(values, grid).tobytes() == want.astype(np.intp).tobytes()


def test_lcr_curve_equals_the_definition_on_a_long_series():
    # Thousands of downward steps, many across several cells, all in one scan each way.
    values = np.round(np.random.default_rng(8).normal(10.0, 12.0, 12_000) * 2.0) / 2.0
    sinr, grid = series(values), threshold_grid()
    want = np.array([level_crossing_rate_reference(sinr, float(t)) for t in grid])
    assert lcr_curve(sinr, grid).values.tobytes() == want.tobytes()


@given(series_on_grid())
# Cell 1 is first crossed in a later run of new highs than cell 0, whose run fell to level 0.
@example((series([0.5, -1.0, 2.0, 0.5, 2.0, 0.5]), np.array([0.0, 1.0])))
def test_lcr_curve_equals_the_per_threshold_definition(case):
    sinr, grid = case
    want = np.mean([[level_crossing_rate_reference(row, float(t)) for t in grid]
                    for row in row_series(sinr)], axis=0)
    got = lcr_curve(sinr, grid).values
    assert got.tobytes() == want.tobytes()
    assert np.all(got >= 0.0)


@given(series_on_grid(), st.floats(-45.0, 45.0))
def test_lcr_at_one_threshold_equals_the_definition(case, threshold):
    sinr, grid = case
    for t in (threshold, float(grid[0])):
        want = np.mean([level_crossing_rate_reference(row, t) for row in row_series(sinr)])
        got = level_crossing_rate(sinr, t)
        assert got == want and got >= 0.0


# ------------------------------------------------------------------------ csv

def test_curve_csv_round_trip(tmp_path):
    curve = empirical_outage(np.random.default_rng(4).normal(5.0, 3.0, 64), threshold_grid())
    path = tmp_path / "outage.csv"
    write_curve_csv(curve, path, scheme="coop", subject=1)
    loaded, scheme, subject = read_curve_csv(path)
    assert (scheme, subject) == ("coop", "1")
    assert loaded.kind == "outage"
    np.testing.assert_array_equal(loaded.thresholds_db, curve.thresholds_db)
    np.testing.assert_array_equal(loaded.values, curve.values)


def test_curve_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("kind,outage,scheme,coop\n0,0\n")
    with pytest.raises(MetricsError, match="bad.csv:1"):
        read_curve_csv(path)
    path.write_text("kind,outage,scheme,coop,subject,1\n0.0,0.0\n1.0,zero\n")
    with pytest.raises(MetricsError, match="bad.csv:3"):
        read_curve_csv(path)

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracle import load_trace_reference, save_trace_reference, synthetic_samples_reference
from wbansim.channel import (BodyLocation, ChannelTrace, LinkId, SyntheticChannelParams,
                             TraceError, downsample, extract_shadowing, fspl_db,
                             generate_synthetic, load_trace, overlay, save_trace)

LINK = LinkId.parse("1:HD->1:C")


def make_trace(samples, period_ms=120.0, link=LINK):
    return ChannelTrace(link, period_ms, np.asarray(samples, dtype=float))


# ---------------------------------------------------------------- identifiers

def test_body_location_parse_accepts_code_and_name():
    assert BodyLocation.parse("LH") is BodyLocation.LEFT_HIP
    assert BodyLocation.parse(" chest ") is BodyLocation.CHEST
    with pytest.raises(ValueError, match="unknown body location"):
        BodyLocation.parse("KNEE")


def test_link_id_round_trip():
    link = LinkId(2, BodyLocation.LEFT_HIP, 1, BodyLocation.CHEST)
    assert str(link) == "2:LH->1:C"
    assert LinkId.parse(str(link)) == link
    assert not link.is_intra
    assert LinkId.parse("1:HD->1:C").is_intra


def test_link_id_rejects_self_link():
    with pytest.raises(ValueError, match="coincide"):
        LinkId(1, BodyLocation.CHEST, 1, BodyLocation.CHEST)
    with pytest.raises(ValueError, match="malformed link"):
        LinkId.parse("1:HD-1:C")


# --------------------------------------------------------------------- traces

def test_trace_validation():
    with pytest.raises(TraceError, match="positive"):
        make_trace([1.0], period_ms=0.0)
    with pytest.raises(TraceError, match="nonempty"):
        make_trace([])
    with pytest.raises(TraceError, match="non-finite"):
        make_trace([1.0, math.nan])
    trace = make_trace([1.0, 2.0])
    with pytest.raises(ValueError):
        trace.samples[0] = 0.0  # frozen array
    assert trace.n_samples == 2
    assert trace.sample_period_ms == 120.0


_ENDPOINTS = st.tuples(st.integers(0, 99), st.sampled_from(BodyLocation))
_LINKS = st.tuples(_ENDPOINTS, _ENDPOINTS).filter(lambda ends: ends[0] != ends[1]).map(
    lambda ends: LinkId(*ends[0], *ends[1]))


# Every file in tmp_path is overwritten by the next example, so sharing it is safe.
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(link=_LINKS,
       period_ms=st.floats(min_value=0.0, max_value=1e6, exclude_min=True),
       gains=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                      min_size=1, max_size=40))
def test_save_load_round_trip(tmp_path, link, period_ms, gains):
    trace = make_trace(gains, period_ms=period_ms, link=link)
    path = tmp_path / "t.csv"
    save_trace(trace, path)
    loaded = load_trace(path)
    assert loaded.link == trace.link
    assert loaded.sample_period_ms == trace.sample_period_ms
    assert loaded.samples.tobytes() == trace.samples.tobytes()


@pytest.mark.parametrize("content,lineno,message", [
    ("", 1, "empty file"),
    ("period_ms=15\n0,1\n", 1, "malformed header"),
    ("link=1:HD->1:C,period_ms=0\n0,1\n", 1, "positive"),
    ("link=1:HD->1:C,period_ms=15\n", 2, "no data rows"),
    ("link=1:HD->1:C,period_ms=15\n0,-50\n14,-51\n", 3, "timestamp"),
    ("link=1:HD->1:C,period_ms=15\n0,-50\n15\n", 3, "expected"),
    ("link=1:HD->1:C,period_ms=15\n0,oops\n", 2, "could not convert"),
    ("link=1:HD->1:C,period_ms=15\n0,inf\n", 2, "non-finite"),
    ("link=1:HD->1:C,period_ms=15\n0,-50\nnan,-51\n", 3, "timestamp"),
])
def test_load_errors_carry_line_numbers(tmp_path, content, lineno, message):
    path = tmp_path / "bad.csv"
    path.write_text(content)
    with pytest.raises(TraceError, match=f"bad.csv:{lineno}:") as err:
        load_trace(path)
    assert message in str(err.value)



# Periods from the smallest subnormal to 1e6 ms, and gains with signed
# zeros, subnormals and the ends of the finite range.
_PERIODS = st.one_of(st.sampled_from([5e-324, 1e-310, 0.1, 1 / 3, 15.0, 40.0, 1e6]),
                     st.floats(min_value=0.0, max_value=1e6, exclude_min=True))
_GAINS = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                    1e308, -1e308, -1.7976931348623157e308]),
                   st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(link=_LINKS, period_ms=_PERIODS, gains=st.lists(_GAINS, min_size=1, max_size=40))
def test_save_trace_writes_the_row_by_row_bytes(tmp_path, link, period_ms, gains):
    trace = make_trace(gains, period_ms=period_ms, link=link)
    save_trace(trace, tmp_path / "fast.csv")
    save_trace_reference(trace, tmp_path / "reference.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


@st.composite
def _trace_files(draw):
    """A valid trace file's parts: period, data rows as field lists, layout.

    The layout pads fields with whitespace, puts blank and whitespace-only
    rows between data rows, and picks LF or CRLF line ends.
    """
    period = draw(_PERIODS)
    gains = draw(st.lists(_GAINS, min_size=1, max_size=30))
    pad = st.sampled_from(["", " ", "\t", " \t "])
    rows = [[draw(pad) + repr(float(i * period)) + draw(pad),
             draw(pad) + repr(gain) + draw(pad)] for i, gain in enumerate(gains)]
    # (k, text): a blank row of that text before data row k, or after the last.
    blanks = draw(st.lists(st.tuples(st.integers(0, len(rows)),
                                     st.sampled_from(["", " ", "\t"])), max_size=4))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return period, rows, sorted(blanks), newline


def _write_trace_file(path, period, rows, blanks, newline) -> list[int]:
    """Write the file; return the line number of each data row."""
    lines, linenos = [f"link=1:HD->1:C,period_ms={period!r}"], []
    blanks = list(blanks)
    for k, row in enumerate(rows + [None]):
        while blanks and blanks[0][0] == k:
            lines.append(blanks.pop(0)[1])
        if row is not None:
            lines.append(",".join(row))
            linenos.append(len(lines))
    path.write_text(newline.join(lines) + newline)
    return linenos


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(parts=_trace_files())
def test_valid_files_load_to_the_reference_samples(tmp_path, parts):
    path = tmp_path / "t.csv"
    _write_trace_file(path, *parts)
    loaded, expected = load_trace(path), load_trace_reference(path)
    assert loaded.link == expected.link
    assert loaded.sample_period_ms == expected.sample_period_ms
    assert loaded.samples.tobytes() == expected.samples.tobytes()


_FAULTS = ("one field", "three fields", "unparsable", "off grid", "nan timestamp",
           "non-finite gain")


def _break(row, k, period, fault, data):
    t, gain = row
    if fault == "one field":
        return [t]
    if fault == "three fields":
        return [t, gain, gain]
    if fault == "unparsable":
        bad = data.draw(st.sampled_from(["oops", "", " ", "0x1", "1e", "1__0"]))
        return data.draw(st.sampled_from([[bad, gain], [t, bad]]))
    if fault == "off grid":
        return [repr(float(k * period) + period), gain]
    if fault == "nan timestamp":
        return [data.draw(st.sampled_from(["nan", "-NaN"])), gain]
    return [t, data.draw(st.sampled_from(["inf", "-inf", "nan", "1e999"]))]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(parts=_trace_files(), data=st.data())
def test_faulty_files_raise_the_reference_error_for_the_first_bad_row(tmp_path, parts,
                                                                       data):
    period, rows, blanks, newline = parts
    bad = data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=2,
                             unique=True))
    for k in bad:
        rows[k] = _break(rows[k], k, period, data.draw(st.sampled_from(_FAULTS)), data)
    path = tmp_path / "t.csv"
    linenos = _write_trace_file(path, period, rows, blanks, newline)
    with pytest.raises(TraceError) as expected:
        load_trace_reference(path)
    with pytest.raises(TraceError) as raised:
        load_trace(path)
    assert str(raised.value) == str(expected.value)
    assert str(expected.value).startswith(f"{path}:{linenos[min(bad)]}:")

# ----------------------------------------------------------------- resampling

def test_downsample_keeps_every_kth_sample():
    trace = make_trace(np.arange(80.0), period_ms=15.0)
    coarse = downsample(trace, 120.0)
    assert coarse.sample_period_ms == 120.0
    np.testing.assert_array_equal(coarse.samples, np.arange(0.0, 80.0, 8.0))


def test_downsample_composes():
    trace = make_trace(np.arange(240.0), period_ms=15.0)
    two_step = downsample(downsample(trace, 30.0), 120.0)
    one_step = downsample(trace, 120.0)
    np.testing.assert_array_equal(two_step.samples, one_step.samples)


def test_downsample_identity_and_errors():
    trace = make_trace([1.0, 2.0], period_ms=120.0)
    assert downsample(trace, 120.0) is trace
    with pytest.raises(TraceError, match="whole number"):
        downsample(make_trace([1.0, 2.0], period_ms=15.0), 100.0)
    # The error names the trace's link.
    with pytest.raises(TraceError, match=r"^trace 1:LH->1:C: cannot downsample period 240\.0 "
                                         r"ms to 120\.0 ms: ratio 0\.5 is not a whole number$"):
        downsample(make_trace([1.0], period_ms=240.0, link=LinkId.parse("1:LH->1:C")), 120.0)
    with pytest.raises(TraceError, match="whole number"):
        downsample(trace, 60.0)  # upsampling is out of scope
    # 120 / 5e-324 overflows to inf, which round() cannot convert.
    with pytest.raises(TraceError, match="ratio inf is not a whole number"):
        downsample(make_trace([1.0, 2.0], period_ms=5e-324), 120.0)


# ------------------------------------------------------------------ path loss

def test_fspl_reference_value():
    # 20 cm at 2.36 GHz.
    assert abs(fspl_db(0.2, 2.36e9) - 25.93) < 0.01


def test_fspl_scaling():
    base = fspl_db(0.2, 2.36e9)
    assert fspl_db(0.4, 2.36e9) - base == pytest.approx(20.0 * math.log10(2.0), abs=1e-12)
    assert fspl_db(0.2, 4.72e9) - base == pytest.approx(20.0 * math.log10(2.0), abs=1e-12)
    with pytest.raises(ValueError):
        fspl_db(0.0, 2.36e9)
    with pytest.raises(ValueError):
        fspl_db(0.2, -1.0)


def test_extract_then_remove_is_identity():
    rng = np.random.default_rng(3)
    trace = make_trace(rng.normal(-60.0, 5.0, 50))
    shadowing = extract_shadowing(trace, 0.4, 2.36e9)
    restored = shadowing.samples - fspl_db(0.4, 2.36e9)
    np.testing.assert_allclose(restored, trace.samples, rtol=0.0, atol=1e-12)


# -------------------------------------------------------------------- overlay

def test_overlay_adds_and_truncates():
    out = LinkId.parse("2:LH->1:C")
    base = make_trace([-70.0, -71.0, -72.0], link=LinkId.parse("2:LH->1:LH"))
    shadow = make_trace([1.5, -2.0], link=LINK)
    combined = overlay(base, shadow, out)
    assert combined.link == out
    np.testing.assert_array_equal(combined.samples, [-68.5, -73.0])


def test_overlay_zero_shadowing_is_identity():
    base = make_trace([-70.0, -71.0], link=LinkId.parse("2:LH->1:LH"))
    zero = make_trace([0.0, 0.0], link=LINK)
    combined = overlay(base, zero, base.link)
    np.testing.assert_array_equal(combined.samples, base.samples)


def test_overlay_rejects_period_mismatch():
    base = make_trace([-70.0], period_ms=120.0)
    shadow = make_trace([0.0], period_ms=60.0, link=LinkId.parse("1:LH->1:C"))
    with pytest.raises(TraceError, match="equal sample periods"):
        overlay(base, shadow, base.link)


def test_measured_gain_rebuilds_from_parts():
    # A gain trace equals path loss plus shadowing, so overlaying the
    # extracted shadowing onto a pure -FSPL trace reproduces the original.
    rng = np.random.default_rng(11)
    measured = make_trace(rng.normal(-60.0, 6.0, 64))
    loss_only = make_trace(np.full(64, -fspl_db(0.4, 2.36e9)))
    rebuilt = overlay(loss_only, extract_shadowing(measured, 0.4, 2.36e9), LINK)
    np.testing.assert_allclose(rebuilt.samples, measured.samples, rtol=0.0, atol=1e-12)


# ------------------------------------------------------------------ synthetic

def synthetic(link=LINK, duration_ms=120.0 * 2000, sample_period_ms=120.0, seed=0, **kw):
    params = dict(mean_gain_db=-55.0, shadow_sigma_db=6.0, coherence_time_ms=500.0)
    params.update(kw)
    return generate_synthetic(SyntheticChannelParams(**params), link, duration_ms,
                              sample_period_ms, seed)


def test_synthetic_is_deterministic_per_link():
    a = synthetic()
    b = synthetic()
    other = synthetic(LinkId.parse("1:HD->1:LH"))
    np.testing.assert_array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, other.samples)
    assert a.n_samples == 2000


def test_synthetic_zero_sigma_is_flat():
    trace = synthetic(shadow_sigma_db=0.0)
    np.testing.assert_array_equal(trace.samples, np.full(2000, -55.0))


def test_synthetic_marginal_and_correlation():
    samples = synthetic(duration_ms=120.0 * 100_000).samples
    assert samples.mean() == pytest.approx(-55.0, abs=0.2)
    assert samples.std() == pytest.approx(6.0, abs=0.3)
    lag1 = np.corrcoef(samples[:-1], samples[1:])[0, 1]
    assert lag1 == pytest.approx(math.exp(-120.0 / 500.0), abs=0.02)


@settings(max_examples=200, deadline=None)
@given(link=_LINKS, n=st.integers(1, 300),
       period_ms=st.floats(0.1, 1000.0),
       decay=st.floats(1e-6, 40.0),
       mean=st.floats(-200.0, 200.0),
       sigma=st.floats(0.0, 30.0),
       seed=st.integers(0, 2**63 - 1))
def test_synthetic_matches_the_recurrence_bit_for_bit(link, n, period_ms, decay, mean,
                                                      sigma, seed):
    # rho = exp(-period / coherence) = exp(-decay) spans (0, 1).
    params = SyntheticChannelParams(mean, sigma, period_ms / decay)
    trace = generate_synthetic(params, link, n * period_ms, period_ms, seed)
    expected = synthetic_samples_reference(params, link, n * period_ms, period_ms, seed)
    assert trace.n_samples == n
    np.testing.assert_array_equal(trace.samples.view(np.uint64), expected.view(np.uint64))


def test_synthetic_param_validation():
    for bad in (dict(mean_gain_db=math.inf), dict(shadow_sigma_db=-1.0),
                dict(shadow_sigma_db=math.inf), dict(coherence_time_ms=0.0),
                dict(coherence_time_ms=math.inf)):
        with pytest.raises(ValueError):
            synthetic(**bad)
    with pytest.raises(ValueError):
        synthetic(duration_ms=60.0)  # shorter than one sample period


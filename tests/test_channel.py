import math
import struct
import tracemalloc
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracle import load_trace_reference, save_trace_reference, synthetic_samples_reference
from wbansim import channel
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
    # \x1c breaks the line for splitlines(); \x1f is whitespace to strip() but not to float().
    ("link=1:HD->1:C,period_ms=15\n0.0\x1c,1.0\n", 2,
     "expected '<t_ms>,<gain_db>', got '0.0'"),
    ("link=1:HD->1:C,period_ms=15\n0.0\x1f,1.0\n", 2,
     "could not convert string to float: '0.0\\x1f'"),
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


# The line breaks of str.splitlines() other than "\n" and "\r\n".
_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))


def _spell(text, spelling):
    """``text``, a float's repr, spelt another way that float() reads as the same value."""
    if spelling == "arabic-indic digits":
        return text.translate(_ARABIC_INDIC)
    if spelling == "underscore":
        for i in range(len(text) - 1):
            if text[i].isdigit() and text[i + 1].isdigit():
                return text[:i + 1] + "_" + text[i + 1:]
    return text


class _TraceFile(NamedTuple):
    plain: bool           # only characters save_trace writes, and LF or CRLF line ends
    period: float
    rows: list            # field lists
    blanks: list          # (k, text): a blank row of that text before data row k, or
                          # after the last row when k is the row count
    newline: str
    header_end: str


@st.composite
def _trace_files(draw):
    """A valid trace file's parts.

    Half the files are plain: the characters save_trace writes, LF or CRLF
    line ends and empty blank rows. The others pad fields with whitespace
    (no-break spaces included), spell fields with underscores or
    Arabic-Indic digits, put whitespace-only rows between data rows, end
    lines with any line break of str.splitlines(), and may follow the header
    by a form feed and the first data row on the same line.
    """
    plain = draw(st.booleans())
    period = draw(_PERIODS)
    gains = draw(st.lists(_GAINS, min_size=1, max_size=30))
    if plain:
        pad, spelling = st.just(""), st.just("")
        blank, newline = st.just(""), st.sampled_from(["\n", "\r\n"])
    else:
        pad = st.sampled_from(["", " ", "\t", " \t ", "\xa0", "\u3000"])
        spelling = st.sampled_from(["", "underscore", "arabic-indic digits"])
        blank = st.sampled_from(["", " ", "\t", "\x1f", "\xa0 ", "\u3000"])
        newline = st.sampled_from(["\n", "\r\n", *_BREAKS])
    rows = [[draw(pad) + _spell(repr(float(i * period)), draw(spelling)) + draw(pad),
             draw(pad) + _spell(repr(gain), draw(spelling)) + draw(pad)]
            for i, gain in enumerate(gains)]
    blanks = draw(st.lists(st.tuples(st.integers(0, len(rows)), blank), max_size=4))
    newline = draw(newline)
    header_end = newline if plain else draw(st.sampled_from([newline, "\x0c"]))
    return _TraceFile(plain, period, rows, sorted(blanks), newline, header_end)


def _write_trace_file(path, file: _TraceFile) -> list[int]:
    """Write the file; return the line number of each data row."""
    lines, linenos = [], []
    blanks = list(file.blanks)
    for k, row in enumerate(file.rows + [None]):
        while blanks and blanks[0][0] == k:
            lines.append(blanks.pop(0)[1])
        if row is not None:
            lines.append(",".join(row))
            linenos.append(len(lines) + 1)
    path.write_text(f"link=1:HD->1:C,period_ms={file.period!r}" + file.header_end
                    + file.newline.join(lines) + file.newline)
    return linenos


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(file=_trace_files())
def test_valid_files_load_to_the_reference_samples(tmp_path, file):
    path = tmp_path / "t.csv"
    _write_trace_file(path, file)
    with mock.patch.object(channel, "_scan_rows", wraps=channel._scan_rows) as scan:
        loaded = load_trace(path)
    expected = load_trace_reference(path)
    assert loaded.link == expected.link
    assert loaded.sample_period_ms == expected.sample_period_ms
    assert loaded.samples.tobytes() == expected.samples.tobytes()
    # numpy's reader takes every plain file; only others reach the row scan.
    assert not (file.plain and scan.called)


_BLOCK = channel._TRACE_BLOCK_ROWS


def _load_spying(path):
    """``load_trace(path)``, and whether numpy's reader and the row scan ran."""
    with mock.patch.object(channel, "_scan_rows", wraps=channel._scan_rows) as scan, \
            mock.patch.object(channel.np, "loadtxt", wraps=np.loadtxt) as reader:
        loaded = load_trace(path)
    return loaded, reader.called, scan.called


def _assert_loads_the_reference(path):
    loaded, expected = load_trace(path), load_trace_reference(path)
    assert (loaded.link, loaded.sample_period_ms) == (expected.link, expected.sample_period_ms)
    assert loaded.samples.tobytes() == expected.samples.tobytes()


@pytest.mark.parametrize("rows", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7])
def test_trace_csvs_across_block_edges_match_the_row_by_row_reference(tmp_path, rows):
    trace = make_trace(np.random.default_rng(rows).normal(-55.0, 6.0, rows), period_ms=15.0)
    save_trace(trace, tmp_path / "fast.csv")
    save_trace_reference(trace, tmp_path / "reference.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    _, by_numpy, by_scan = _load_spying(tmp_path / "fast.csv")
    assert by_numpy and not by_scan
    _assert_loads_the_reference(tmp_path / "fast.csv")


def test_a_character_past_the_first_checked_block_sends_the_file_to_the_row_scan(tmp_path):
    path = tmp_path / "t.csv"
    save_trace(make_trace(np.linspace(-60.0, -50.0, 3 * _BLOCK + 7), period_ms=15.0), path)
    text = path.read_text()
    assert len(text) > 2 * channel._CHECK_BLOCK_CHARS
    # The last row's gain spelt with an underscore, which float() reads and numpy does not.
    head, _, last = text.rstrip("\n").rpartition("\n")
    t, gain = last.split(",")
    path.write_text(f"{head}\n{t},{gain[:2]}_{gain[2:]}\n")
    _, by_numpy, by_scan = _load_spying(path)
    assert by_scan and not by_numpy
    _assert_loads_the_reference(path)


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["CRLF", "CR"])
def test_plain_files_with_crlf_or_cr_line_ends_take_numpys_reader(tmp_path, newline):
    # read_text() translates both to line feeds, and so does the reader's text stream.
    path = tmp_path / "t.csv"
    save_trace(make_trace(np.linspace(-60.0, -50.0, _BLOCK + 1), period_ms=40.0), path)
    path.write_bytes(path.read_bytes().replace(b"\n", newline.encode()))
    loaded, by_numpy, by_scan = _load_spying(path)
    assert by_numpy and not by_scan
    assert loaded.n_samples == _BLOCK + 1
    _assert_loads_the_reference(path)


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_a_plain_file_named_like_a_compressed_one_goes_to_the_row_scan(tmp_path, suffix):
    # np.loadtxt would open it through a decompressor.
    path = tmp_path / f"t{suffix}"
    save_trace(make_trace([-50.0, -51.0, -52.0]), path)
    _, by_numpy, by_scan = _load_spying(path)
    assert by_scan and not by_numpy
    _assert_loads_the_reference(path)


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_trace_csv_reads_and_writes_hold_bounded_memory(tmp_path):
    """One call's traced peak on a 240 000-row plain trace, an hour at 15 ms.

    A read holds numpy's parsed (rows, 2) float64 columns, 16 B per row, and the
    trace's copy of the gains, 8 B per row; besides them only fixed blocks: the
    character check's 64 Ki characters, each encoded and translated, and the
    reader's chunks. The bound also allows the file's bytes, as a read that held
    them once would: file size + 24 B per row + 1 MiB. A write holds one block of
    4096 rows: 8192 floats (24 B each, with 8 B list and 8 B tuple slots), the
    24 Ki-character format and about 160 KiB of text and its encoding, about
    0.6 MiB, so 1 MiB whatever the length. Reading or writing the whole trace at
    once held 43.5 and 27.9 MiB.
    """
    rows = 240_000
    trace = make_trace(np.random.default_rng(7).normal(-55.0, 6.0, rows), period_ms=15.0)
    path = tmp_path / "t.csv"
    save_trace(trace, path)
    load_trace(path)  # first-call caches stay outside both peaks
    assert _traced_peak(lambda: load_trace(path)) <= path.stat().st_size + 24 * rows + 2**20
    assert _traced_peak(lambda: save_trace(trace, path)) <= 2**20


_FAULTS = ("one field", "three fields", "trailing comma", "unparsable", "stray character",
           "off grid", "nan timestamp", "non-finite gain")


def _break(row, k, period, fault, data):
    t, gain = row
    if fault == "one field":
        return [t]
    if fault == "three fields":
        return [t, gain, gain]
    if fault == "trailing comma":
        return [t, gain, ""]
    if fault == "unparsable":
        bad = data.draw(st.sampled_from(["oops", "", " ", "0x1", "1e", "1__0", "_1", "1_",
                                         "#1", '"1"', "'1'"]))
        return data.draw(st.sampled_from([[bad, gain], [t, bad]]))
    if fault == "stray character":
        # Before the comma: a line break leaves the timestamp alone on its line,
        # anything else is a character float() refuses.
        return [t + data.draw(st.sampled_from([*_BREAKS, "\x1f", "#", '"'])), gain]
    if fault == "off grid":
        return [repr(float(k * period) + period), gain]
    if fault == "nan timestamp":
        return [data.draw(st.sampled_from(["nan", "-NaN"])), gain]
    return [t, data.draw(st.sampled_from(["inf", "-inf", "nan", "1e999"]))]


@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(file=_trace_files(), data=st.data())
def test_faulty_files_raise_the_reference_error_for_the_first_bad_row(tmp_path, file,
                                                                       data):
    rows = file.rows
    bad = data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=2,
                             unique=True))
    for k in bad:
        rows[k] = _break(rows[k], k, file.period, data.draw(st.sampled_from(_FAULTS)), data)
    path = tmp_path / "t.csv"
    linenos = _write_trace_file(path, file)
    with pytest.raises(TraceError) as expected:
        load_trace_reference(path)
    with pytest.raises(TraceError) as raised:
        load_trace(path)
    assert str(raised.value) == str(expected.value)
    assert str(expected.value).startswith(f"{path}:{linenos[min(bad)]}:")


def _bits_to_float(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# Decimal strings that are hard to round: the repr of any bit pattern, a
# mantissa of 1-40 digits with the point anywhere and an exponent from -330
# to 310, and subnormals, halfway cases and signed zeros.
_DECIMALS = st.one_of(
    st.integers(0, 2**64 - 1).map(_bits_to_float).filter(math.isfinite).map(repr),
    st.builds(lambda sign, digits, point, exponent: (
        f"{sign}{digits[:point]}.{digits[point:]}e{exponent}"),
        st.sampled_from(["", "-", "+"]), st.text("0123456789", min_size=1, max_size=40),
        st.integers(0, 40), st.integers(-330, 310)),
    st.sampled_from(["0.0", "-0.0", "-0", "+0e-999", "5e-324", "-5e-324",
                     "2.4703282292062327e-324", "2.4703282292062328e-324",
                     "2.2250738585072011e-308", "2.2250738585072014e-308",
                     "1.7976931348623157e308", "1.7976931348623158e308", "9007199254740993",
                     "0.1000000000000000055511151231257827021181583404541015625"]),
).filter(lambda text: math.isfinite(float(text)))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(gains=st.lists(_DECIMALS, min_size=1, max_size=50))
def test_the_reader_parses_a_gain_to_the_bits_float_gives(tmp_path, gains):
    path = tmp_path / "t.csv"
    path.write_text("link=1:HD->1:C,period_ms=1.0\n"
                    + "".join(f"{k}.0,{gain}\n" for k, gain in enumerate(gains)))
    with mock.patch.object(channel, "_scan_rows", side_effect=AssertionError("row scan")):
        samples = load_trace(path).samples
    expected = np.array([float(gain) for gain in gains])
    assert samples.view(np.uint64).tolist() == expected.view(np.uint64).tolist()

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
@given(link=_LINKS, n=st.integers(1, 5000),
       period_ms=st.floats(0.1, 1000.0),
       decay=st.floats(1e-6, 40.0),
       mean=st.floats(-200.0, 200.0),
       sigma=st.one_of(st.just(0.0), st.floats(0.0, 30.0)),
       seed=st.integers(0, 2**63 - 1))
def test_synthetic_matches_the_recurrence_bit_for_bit(link, n, period_ms, decay, mean,
                                                      sigma, seed):
    # rho = exp(-period / coherence) = exp(-decay) spans (0, 1): up to exp(-1e-6), where
    # the repair walk does all the work. Up to 5000 samples span many chunks of the
    # kernel's estimate, and sigma 0 makes every shock a signed zero.
    params = SyntheticChannelParams(mean, sigma, period_ms / decay)
    trace = generate_synthetic(params, link, n * period_ms, period_ms, seed)
    expected = synthetic_samples_reference(params, link, n * period_ms, period_ms, seed)
    assert trace.n_samples == n
    np.testing.assert_array_equal(trace.samples.view(np.uint64), expected.view(np.uint64))


def _nudged(estimate):
    """Every 97th sample one ulp up: on top of the lanes' own misses."""
    estimate[::97] = np.nextafter(estimate[::97], np.inf)
    return estimate


def _garbage(estimate):
    """A random estimate: the walk does all the work."""
    return np.random.default_rng(0).normal(0.0, 6.0, estimate.size)


@pytest.mark.parametrize("spoil", [_nudged, _garbage])
def test_the_repair_walk_mends_every_miss_of_the_estimate(spoil):
    # 12 000 samples at 15 ms with a 500 ms coherence time, as csv-traces draws its
    # inter-body links. The estimate decides only how much is walked, not the result.
    params = SyntheticChannelParams(-70.0, 6.0, 500.0)
    link = LinkId.parse("2:LH->1:LH")
    lanes = channel._ar1_lanes
    with mock.patch.object(channel, "_ar1_lanes", lambda x, rho: spoil(lanes(x, rho))), \
            mock.patch.object(channel, "_ar1_repair", wraps=channel._ar1_repair) as repair:
        trace = generate_synthetic(params, link, 15.0 * 12_000, 15.0, 1)
    misses = repair.call_args.args[3]
    print(f"{spoil.__name__}: {misses.size} misses")
    assert set(range(0, 12_000, 97)) <= set(misses.tolist())
    expected = synthetic_samples_reference(params, link, 15.0 * 12_000, 15.0, 1)
    np.testing.assert_array_equal(trace.samples.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("n,period_ms,coherence_ms", [
    (40_000, 120.0, 240.0), (40_000, 120.0, 500.0),  # default
    (4000, 120.0, 240.0), (4000, 120.0, 500.0),      # crowd
    (12_000, 15.0, 240.0), (12_000, 15.0, 500.0),    # csv-traces
])
def test_synthetic_equals_lfilter_at_the_benchmark_sizes(n, period_ms, coherence_ms):
    signal = pytest.importorskip("scipy.signal")
    params = SyntheticChannelParams(-55.0, 6.0, coherence_ms)
    with mock.patch.object(channel, "_ar1", wraps=channel._ar1) as ar1:
        trace = generate_synthetic(params, LINK, n * period_ms, period_ms, 3)
    shocks, rho = ar1.call_args.args
    assert (shocks.size, rho) == (n, math.exp(-period_ms / coherence_ms))
    expected = params.mean_gain_db + signal.lfilter([1.0], [1.0, -rho], shocks)
    np.testing.assert_array_equal(trace.samples.view(np.uint64), expected.view(np.uint64))


def test_synthetic_param_validation():
    for bad in (dict(mean_gain_db=math.inf), dict(shadow_sigma_db=-1.0),
                dict(shadow_sigma_db=math.inf), dict(coherence_time_ms=0.0),
                dict(coherence_time_ms=math.inf)):
        with pytest.raises(ValueError):
            synthetic(**bad)
    with pytest.raises(ValueError):
        synthetic(duration_ms=60.0)  # shorter than one sample period


"""Block-fading channel traces for on-body and body-to-body radio links.

Channel gains are carried in dB throughout (so ``10**(g/10)`` is the linear
power gain). Trace manipulation (downsampling, shadowing extraction,
overlaying) is exact additive arithmetic in the dB domain; the engine converts
to linear power once, when it assembles a victim's channels for its runs.

Traces can be ingested from CSV files, e.g. measurement campaigns sampled
at 15 ms (on-body) or 40 ms (body-to-body), or synthesised with a
first-order autoregressive lognormal shadowing model. Either way they are
decimated to a common block-fading epoch period (120 ms by default) before
simulation.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .seeding import substream

SPEED_OF_LIGHT = 299_792_458.0


class TraceError(Exception):
    """Malformed trace data or an inconsistent trace operation."""


class MissingLinkError(TraceError):
    """A channel source has no trace for a required link."""


class FieldError(ValueError):
    """An out-of-range value of one field, named by ``field``."""

    def __init__(self, field: str, problem: str):
        super().__init__(f"{field}: {problem}")
        self.field, self.problem = field, problem


def _linear(value_db: float, field: str, positive: bool = False) -> float:
    """The linear value ``10.0 ** (value_db / 10.0)`` of a dB quantity, e.g. mW from dBm.

    It must be a finite float, and > 0 if ``positive``; an overflow counts as
    not finite. Otherwise a ``FieldError`` names ``field``.
    """
    try:
        linear = 10.0 ** (value_db / 10.0)
    except OverflowError:
        linear = math.inf
    if not (math.isfinite(linear) and (linear > 0.0 or not positive)):
        raise FieldError(field, f"the linear value of {value_db} dB must be finite"
                                + (" and > 0" if positive else ""))
    return linear


class BodyLocation(enum.Enum):
    """Device placements on a subject's body."""

    LEFT_HIP = "LH"
    RIGHT_HIP = "RH"
    CHEST = "C"
    HEAD = "HD"
    RIGHT_WRIST = "RW"
    LEFT_WRIST = "LW"
    UPPER_LEFT_ARM = "LAR"
    LEFT_ANKLE = "LA"
    RIGHT_ANKLE = "RA"
    BACK = "B"

    def __str__(self) -> str:
        return self.value

    @classmethod
    def parse(cls, text: str) -> "BodyLocation":
        code = str(text).strip()
        for member in cls:
            if code.upper() == member.value or code.upper() == member.name:
                return member
        valid = ", ".join(m.value for m in cls)
        raise ValueError(f"unknown body location {text!r} (expected one of {valid})")


@dataclass(frozen=True)
class LinkId:
    """Directed radio link between two body-worn devices.

    Endpoints are (subject index, body location) pairs; a link from a
    device to itself is not a link.
    """

    tx_subject: int
    tx_location: BodyLocation
    rx_subject: int
    rx_location: BodyLocation

    def __post_init__(self):
        if (self.tx_subject, self.tx_location) == (self.rx_subject, self.rx_location):
            raise ValueError(f"link endpoints coincide: {self.tx_subject}:{self.tx_location}")

    @property
    def is_intra(self) -> bool:
        """True for an on-body link (both endpoints on the same subject)."""
        return self.tx_subject == self.rx_subject

    def __str__(self) -> str:
        return (f"{self.tx_subject}:{self.tx_location}"
                f"->{self.rx_subject}:{self.rx_location}")

    _LINK_RE = re.compile(r"^(\d+):([A-Za-z]+)->(\d+):([A-Za-z]+)$")

    @classmethod
    def parse(cls, text: str) -> "LinkId":
        m = cls._LINK_RE.match(text.strip())
        if m is None:
            raise ValueError(f"malformed link label {text!r} (expected like 1:LH->2:C)")
        return cls(int(m.group(1)), BodyLocation.parse(m.group(2)),
                   int(m.group(3)), BodyLocation.parse(m.group(4)))


@dataclass(frozen=True)
class ChannelTrace:
    """Uniformly sampled channel gain series in dB for one link."""

    link: LinkId
    sample_period_ms: float
    samples: np.ndarray

    def __post_init__(self):
        if not (math.isfinite(self.sample_period_ms) and self.sample_period_ms > 0):
            raise TraceError(f"sample period must be positive, got {self.sample_period_ms}")
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1 or samples.size == 0:
            raise TraceError(f"trace {self.link} needs a nonempty 1-D sample array")
        if not np.all(np.isfinite(samples)):
            raise TraceError(f"trace {self.link} contains non-finite gains")
        samples = samples.copy()
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)

    @property
    def n_samples(self) -> int:
        return int(self.samples.size)


@dataclass(frozen=True)
class SyntheticChannelParams:
    """Marginal statistics and coherence of the AR(1) shadowing of a link class."""

    mean_gain_db: float
    shadow_sigma_db: float
    coherence_time_ms: float

    def __post_init__(self):
        _linear(self.mean_gain_db, "mean_gain_db", positive=True)
        if not (math.isfinite(self.shadow_sigma_db) and self.shadow_sigma_db >= 0):
            raise ValueError(
                f"shadow_sigma_db must be finite and >= 0, got {self.shadow_sigma_db}")
        if not (math.isfinite(self.coherence_time_ms) and self.coherence_time_ms > 0):
            raise ValueError("coherence_time_ms must be finite and positive, got "
                             f"{self.coherence_time_ms}")


_HEADER_RE = re.compile(r"^link=(?P<link>[^,]+),period_ms=(?P<period>[^,\s]+)$")


# A trace CSV is written this many rows at a time, so a write holds one block's
# floats and text however long the trace.
_TRACE_BLOCK_ROWS = 4096
# The characters of a data row that save_trace writes; only such rows go to numpy's
# reader. They are checked this many at a time.
_PLAIN_ROW_BYTES = b"0123456789.e+-,\n"
_CHECK_BLOCK_CHARS = 1 << 16
# The suffixes of the paths that np.loadtxt opens through a decompressor.
_COMPRESSED_SUFFIXES = (".bz2", ".gz", ".xz", ".lzma")


def load_trace(path) -> ChannelTrace:
    """Load a trace CSV, validating the header and the timestamp grid.

    The first line must read ``link=<tx>:<loc>-><rx>:<loc>,period_ms=<p>``
    and data rows must be ``<t_ms>,<gain_db>`` with timestamps running
    0, p, 2p, ... strictly. A field is anything Python's ``float()`` accepts,
    blank rows are skipped, and an error names the first bad row's line.

    A file of the characters ``save_trace`` writes is checked in blocks of
    ``_CHECK_BLOCK_CHARS`` and parsed by numpy's C reader straight from the
    file, so beyond fixed blocks the read holds the parsed (rows, 2) float64
    columns and the gains' copy, 24 B per row, and no copy of the file. Any
    other file, and any file that breaks a rule, is read whole as text for the
    row scan.
    """
    path = Path(path)
    head = _plain_head(path)
    lines = [head] if head is not None else _read_text(path).splitlines()
    if not lines:
        raise TraceError(f"{path}:1: empty file, expected a header line")
    header = _HEADER_RE.match(lines[0].strip())
    if header is None:
        raise TraceError(f"{path}:1: malformed header {lines[0]!r}")
    try:
        link = LinkId.parse(header.group("link"))
        period = float(header.group("period"))
    except ValueError as exc:
        raise TraceError(f"{path}:1: {exc}") from exc
    if not (math.isfinite(period) and period > 0):
        raise TraceError(f"{path}:1: period_ms must be positive, got {header.group('period')}")

    gains = _read_rows(path, period) if head is not None else None
    if gains is None:
        if head is not None:  # numpy's reader was in doubt: the row scan decides
            lines = _read_text(path).splitlines()
        gains = _scan_rows(path, lines, period)
    return ChannelTrace(link, period, gains)


def _read_text(path: Path) -> str:
    try:
        return path.read_text()
    except OSError as exc:
        raise TraceError(f"cannot read trace file {path}: {exc}") from exc


def _plain_head(path: Path) -> str | None:
    """The header line of a file that numpy's reader may parse, else None.

    Such a file has a printable first line and, after it, only the characters
    of ``_PLAIN_ROW_BYTES`` and at least one that is not a line feed. Lines end
    as ``read_text`` ends them: the file is read as text with universal
    newlines, so CRLF and CR ends count as line feeds. A file that cannot be
    read or decoded is left to ``_read_text``, which raises its error.
    """
    try:
        with path.open() as file:
            head = file.readline()
            if not head or not head.removesuffix("\n").isprintable():
                return None
            filled = False
            while block := file.read(_CHECK_BLOCK_CHARS):
                data = block.encode()
                if data.translate(None, _PLAIN_ROW_BYTES):
                    return None
                filled = filled or data.count(b"\n") < len(data)
    except (OSError, UnicodeDecodeError):
        return None
    return head.removesuffix("\n") if filled else None


def _read_rows(path: Path, period: float):
    """The gains of a plain file's data rows read by numpy's C reader, else None.

    The reader reads the file in chunks, as text with the universal newlines of
    ``read_text``, skips the header line, splits rows at line feeds, as
    ``splitlines`` does for these characters, skips blank rows and parses a
    field as ``float()`` does. Any doubt (a reader error, an off-grid
    timestamp, a non-finite gain) is left to the row scan, which names the
    first bad row. So is a path that numpy would open as compressed, by its suffix.
    """
    if path.suffix in _COMPRESSED_SUFFIXES:
        return None
    try:  # the unpacking fails unless the rows hold two fields
        times, gains = np.loadtxt(path, delimiter=",", comments=None, skiprows=1,
                                  dtype=np.float64, ndmin=2).T
    except ValueError:
        return None
    # The row scan's operations, element by element: |t - k * p| <= 1e-6 * p.
    deviation = np.arange(times.size, dtype=np.float64)
    deviation *= period
    deviation -= times
    on_grid = np.abs(deviation, out=deviation) <= 1e-6 * period
    if not (on_grid.all() and np.isfinite(gains).all()):
        return None
    return gains


def _scan_rows(path, lines, period: float) -> list[float]:
    """The gains, read one row at a time: the first bad row raises its error."""
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
        if not abs(t - expected_t) <= tol:  # also rejects a NaN timestamp
            raise TraceError(f"{path}:{lineno}: timestamp {t} is not the expected "
                             f"multiple {expected_t} of period {period}")
        if not math.isfinite(gain):
            raise TraceError(f"{path}:{lineno}: non-finite gain {parts[1]!r}")
        gains.append(gain)
    if not gains:
        raise TraceError(f"{path}:2: no data rows")
    return gains


def save_trace(trace: ChannelTrace, path) -> None:
    """Write a trace in the CSV format understood by :func:`load_trace`.

    Rows are formatted and written ``_TRACE_BLOCK_ROWS`` at a time, so a write
    holds one block's floats and text, well under 1 MiB, however long the trace.
    """
    period = float(trace.sample_period_ms)
    n = trace.n_samples
    row_format = "%r,%r\n" * _TRACE_BLOCK_ROWS
    with Path(path).open("w") as file:
        file.write(f"link={trace.link},period_ms={period!r}\n")
        for start in range(0, n, _TRACE_BLOCK_ROWS):
            stop = min(start + _TRACE_BLOCK_ROWS, n)
            # float(i) * period, as Python computes i * period: the same timestamps
            # for every i below 2**53.
            cells = np.column_stack((np.arange(start, stop) * period,
                                     trace.samples[start:stop]))
            file.write(row_format[:6 * (stop - start)] % tuple(cells.ravel().tolist()))


def downsample(trace: ChannelTrace, target_period_ms: float) -> ChannelTrace:
    """Decimate a trace to a coarser period that is an integer multiple.

    Keeps every k-th sample starting from the first, where
    k = target_period_ms / sample_period_ms must be a whole number to
    within 1e-9. The result is at exactly ``target_period_ms``; a trace
    already there is returned as it is.
    """
    if trace.sample_period_ms == target_period_ms:
        return trace
    stride = decimation_stride(trace.sample_period_ms, target_period_ms)
    if stride is None:
        raise TraceError(f"trace {trace.link}: cannot downsample period "
                         f"{trace.sample_period_ms} ms to {target_period_ms} ms: ratio "
                         f"{target_period_ms / trace.sample_period_ms} is not a whole number")
    return ChannelTrace(trace.link, target_period_ms, trace.samples[::stride])


def decimation_stride(sample_period_ms: float, target_period_ms: float) -> int | None:
    """The whole k >= 1 within 1e-9 of ``target_period_ms / sample_period_ms``, else None."""
    ratio = target_period_ms / sample_period_ms
    stride = round(ratio) if math.isfinite(ratio) else 0
    return stride if stride >= 1 and abs(ratio - stride) <= 1e-9 else None


def fspl_db(distance_m: float, frequency_hz: float) -> float:
    """Free-space path loss in dB at the given distance and frequency.

    Args:
        distance_m: Transmitter-receiver separation in metres, > 0.
        frequency_hz: Carrier frequency in Hz, > 0.
    """
    if not (math.isfinite(distance_m) and distance_m > 0):
        raise ValueError(f"distance must be positive, got {distance_m}")
    if not (math.isfinite(frequency_hz) and frequency_hz > 0):
        raise ValueError(f"frequency must be positive, got {frequency_hz}")
    return 20.0 * math.log10(4.0 * math.pi * distance_m * frequency_hz / SPEED_OF_LIGHT)


def extract_shadowing(trace: ChannelTrace, distance_m: float,
                      frequency_hz: float) -> ChannelTrace:
    """Remove the free-space component of a measured gain trace.

    A gain sample is modelled as shadowing minus free-space path loss, so
    adding the loss back leaves the shadowing process alone.
    """
    loss = fspl_db(distance_m, frequency_hz)
    return ChannelTrace(trace.link, trace.sample_period_ms, trace.samples + loss)


def overlay(part1: ChannelTrace, part2_shadowing: ChannelTrace,
            out_link: LinkId) -> ChannelTrace:
    """Add a shadowing trace onto a base trace sample by sample (in dB).

    Both traces must share the sample period; the result is truncated to
    the shorter of the two and relabelled to ``out_link``. This is how a
    measured cross-body channel is extended with on-body shadowing to
    stand in for an unmeasured receiver location.
    """
    if abs(part1.sample_period_ms - part2_shadowing.sample_period_ms) > 1e-9:
        raise TraceError(f"overlay needs equal sample periods, got "
                         f"{part1.sample_period_ms} ms and {part2_shadowing.sample_period_ms} ms")
    n = min(part1.n_samples, part2_shadowing.n_samples)
    return ChannelTrace(out_link, part1.sample_period_ms,
                        part1.samples[:n] + part2_shadowing.samples[:n])


def synthetic_samples(duration_ms: float, sample_period_ms: float) -> int:
    """The samples ``generate_synthetic`` draws: floor(duration / period + 1e-9)."""
    return int(math.floor(duration_ms / sample_period_ms + 1e-9))


def generate_synthetic(params: SyntheticChannelParams, link: LinkId, duration_ms: float,
                       sample_period_ms: float, seed: int) -> ChannelTrace:
    """Generate a lognormal block-fading trace with exponential correlation.

    The dB-domain gain follows a stationary AR(1) process

        s[0] = mean + sigma * w[0]
        s[i] = mean + rho * (s[i-1] - mean) + sigma * sqrt(1 - rho^2) * w[i]

    with rho = exp(-period / coherence_time) and w ~ N(0, 1), so every
    sample is N(mean, sigma^2) and the autocorrelation decays with the
    configured coherence time. Deterministic in the arguments: the
    generator stream is derived from the seed and the link label.

    Rounding: with the float64 shocks x[0] = w[0] * sigma and
    x[i] = w[i] * c, where c = sigma * sqrt(1 - rho * rho) is rounded once,
    the deviations are y[i] = x[i] + rho * y[i-1] from y[-1] = 0.0, one
    multiply and one add per step, each rounded to nearest, and
    s[i] = mean + y[i]. These are the bytes of that plain loop on every
    platform, whatever order ``_ar1`` computes them in.
    """
    if not (0 < sample_period_ms <= duration_ms):
        raise ValueError("need 0 < sample_period_ms <= duration_ms")
    n = synthetic_samples(duration_ms, sample_period_ms)
    rho = math.exp(-sample_period_ms / params.coherence_time_ms)
    shocks = substream(seed, "trace", str(link)).standard_normal(n)
    shocks[0] *= params.shadow_sigma_db
    if n > 1:
        shocks[1:] *= params.shadow_sigma_db * math.sqrt(1.0 - rho * rho)
    return ChannelTrace(link, sample_period_ms, params.mean_gain_db + _ar1(shocks, rho))


# Samples per lane of the AR(1) estimate. Shorter chunks take fewer sequential steps
# but more lanes. Timed at 8, 12, 16, 24 and 32 on the benchmark's six (length, rho)
# pairs, 16 was never more than a quarter slower than the fastest.
_AR1_CHUNK = 16


def _ar1(x: np.ndarray, rho: float) -> np.ndarray:
    """``y[i] = x[i] + rho * y[i-1]`` from ``y[-1] = 0.0``, exactly as that loop rounds.

    Why it is exact: an estimate of ``y`` (see ``_ar1_lanes``) is checked in one
    vectorised pass, each sample against ``x[i] + rho * y[i-1]`` computed from the
    estimate's own ``y[i-1]`` (and ``y[0]`` against ``x[0] + rho * 0.0``), bit for
    bit. By induction from ``y[-1] = 0.0``, every sample before the first miss is
    the loop's. From a miss, ``_ar1_repair`` runs the loop itself in Python floats,
    the same float64 multiply and add, until a value's bits agree with the
    estimate's: that sample is then the loop's too, and so are the checked samples
    after it, up to the next miss. The estimate decides only how many samples are
    walked, never a bit of the result.
    """
    y = _ar1_lanes(x, rho)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = np.empty_like(y)
        expected[0] = 0.0  # rho * 0.0
        np.multiply(y[:-1], rho, out=expected[1:])
        expected += x
    misses = np.flatnonzero(expected.view(np.uint64) != y.view(np.uint64))
    del expected
    _ar1_repair(x, rho, y, misses)
    return y


def _ar1_lanes(x: np.ndarray, rho: float) -> np.ndarray:
    """An estimate of the AR(1) output, all chunks of ``_AR1_CHUNK`` samples at once.

    The series is cut into chunks. Each chunk's sum weighted by the powers of
    ``rho`` (one matmul) and a doubling scan over the chunk ends estimate the
    value each chunk starts from. Every chunk then runs in its own lane, one
    multiply and one add per step for all lanes, from the estimate at the end of
    the chunk ``k`` chunks earlier: ``k`` chunks of burn-in cover ``4 / (1 - rho)``
    samples, over which an error of a few ulp in the estimate shrinks about e^4
    times and mostly rounds away. Where it has not, the lane's first sample is a
    miss that ``_ar1`` repairs: fewer than 1 % of the lanes on the benchmark's
    traces. Where the lanes' sequential steps would cost more than walking every
    sample in Python floats (a step costs about as much as 16 samples walked),
    the estimate is all zeros and the repair does the work.
    """
    n, chunk = x.size, _AR1_CHUNK
    burn = 4.0 / (1.0 - rho) if rho < 1.0 else math.inf
    if (burn + 2 * chunk) * 16 > n:
        return np.zeros(n)
    k = math.ceil(burn / chunk)
    m = -(-n // chunk)
    # k chunks of zeros in front: a lane that starts there starts exactly, from 0.0.
    padded = np.zeros((k + m) * chunk)
    padded[k * chunk:k * chunk + n] = x
    with np.errstate(over="ignore", invalid="ignore"):
        ends = padded.reshape(k + m, chunk) @ rho ** np.arange(chunk - 1.0, -1.0, -1.0)
        scale, step = rho ** chunk, 1
        while step < ends.size and scale != 0.0:
            ends[step:] += scale * ends[:-step]
            scale, step = scale * scale, 2 * step
        state = np.concatenate(([0.0], ends[:m - 1]))
        for t in range(k * chunk):
            state *= rho
            state += padded[t:t + m * chunk:chunk]
        # Step j of every lane is one contiguous row; the rows are then copied back
        # over the input they were computed from, in series order.
        steps = np.empty((chunk, m))
        for j, t in enumerate(range(k * chunk, (k + 1) * chunk)):
            np.multiply(state, rho, out=steps[j])
            steps[j] += padded[t:t + m * chunk:chunk]
            state = steps[j]
    y = padded[k * chunk:]
    y.reshape(m, chunk)[...] = steps.T
    return y[:n]


def _ar1_repair(x: np.ndarray, rho: float, y: np.ndarray, misses: np.ndarray) -> None:
    """Walk the AR(1) loop in Python floats from each miss until the bits agree."""
    xs, ys = memoryview(x), memoryview(y)
    n, exact = len(ys), 0  # samples below ``exact`` are the loop's
    for i in misses.tolist():
        if i < exact:
            continue
        prev = ys[i - 1] if i else 0.0
        while i < n:
            value = xs[i] + rho * prev
            old = ys[i]
            if value == old and math.copysign(1.0, value) == math.copysign(1.0, old):
                break
            ys[i] = prev = value
            i += 1
        exact = i + 1


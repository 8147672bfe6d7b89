"""Outside-in tracing of wbansim: spans and counters at layer boundaries.

Nothing under ``src/`` is instrumented. Instead :class:`Tracer` replaces the
public functions of each layer at the module attributes they are looked up
from (for example both ``wbansim.engine.lcr_curve``, which the engine calls,
and ``wbansim.metrics.lcr_curve``, which the ``metrics`` command calls) with
wrappers that record a span, a counter, or both, and puts the originals back
on :meth:`Tracer.uninstall`.

A span has a name, start, end, parent and run id (the CLI invocation it
belongs to). Spans stay in memory; :meth:`Tracer.self_times` derives each
layer's self time as its spans' durations minus the time their child spans
cover, so the self times of all layers add up to the root spans.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

# Layer of each span name whose self time is reported as "<layer>_s".
# "cli.op" is the root span the harness opens around each cli.main call.
SPAN_LAYERS = (
    "cli.self", "config.load", "engine.self", "engine.assemble", "channel.fetch",
    "channel.generate", "channel.load_trace", "channel.downsample",
    "channel.overlay", "channel.save_trace", "network.overlap", "metrics.lcr",
    "metrics.outage", "metrics.quantile", "cli.write",
)

# Exact counters, each with the counter it is read against.
COUNTER_BASES = {
    "cli.ops": None,
    "metrics.series": "cli.ops",
    "metrics.lcr_calls": "metrics.series",
    "metrics.crossing_evals": "metrics.series",
    "metrics.cadence_checks": "metrics.series",
    "engine.assemble_calls": "cli.ops",
    "channel.fetch_calls": "engine.assemble_calls",
    "channel.fetch_distinct": "channel.fetch_calls",
    "channel.generate_calls": "channel.fetch_calls",
    "channel.load_trace_calls": "channel.fetch_calls",
    "network.layout_calls": "cli.ops",
    "network.overlap_calls": "network.layout_calls",
    "cli.files_written": "cli.ops",
    "cli.bytes_written": "cli.files_written",
}

_SPAN_FOR_LAYER = {"cli.self": "cli.op", "engine.self": "engine.run"}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: int


class Tracer:
    """Records spans and counters while installed; inert otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._run_id = -1
        self._fetched: set = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._run_id))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def op(self, call, argv):
        """Run ``call(argv)`` as one CLI invocation under a root span."""
        self._run_id += 1
        self._fetched.clear()
        self.counters["cli.ops"] += 1
        index = self._open("cli.op")
        try:
            return call(argv)
        finally:
            self._close(index)

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()
        self._stack.clear()
        self._fetched.clear()

    def _span(self, fn, name: str, counter: str | None = None):
        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            if counter:
                self.counters[counter] += 1
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)
        return wrapper

    def _count(self, fn, counter: str):
        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            self.counters[counter] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _fetch(self, fn):
        span = self._span(fn, "channel.fetch", "channel.fetch_calls")

        @functools.wraps(fn, updated=())
        def wrapper(source, link, seed):
            if link not in self._fetched:
                self._fetched.add(link)
                self.counters["channel.fetch_distinct"] += 1
            return span(source, link, seed)
        return wrapper

    def _write(self, fn):
        span = self._span(fn, "cli.write", "cli.files_written")

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            result = span(*args, **kwargs)
            path = kwargs.get("path", args[1] if len(args) > 1 else None)
            self.counters["cli.bytes_written"] += os.path.getsize(path)
            return result
        return wrapper

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every traced function at each module a CLI path calls it through."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        from wbansim import cli, engine, metrics

        def span_at(owners, attr, name, counter=None):
            wrapped = self._span(getattr(owners[0], attr), name, counter)
            for owner in owners:
                self._patch(owner, attr, wrapped)

        span_at([cli], "load_config", "config.load")
        span_at([engine], "run", "engine.run")
        span_at([engine], "sweep", "engine.run")
        span_at([engine], "assemble_channels", "engine.assemble", "engine.assemble_calls")
        for source in (engine.SyntheticChannelSource, engine.CsvChannelSource):
            self._patch(source, "trace", self._fetch(source.trace))
        span_at([engine], "generate_synthetic", "channel.generate", "channel.generate_calls")
        span_at([engine, cli], "load_trace", "channel.load_trace", "channel.load_trace_calls")
        span_at([engine], "downsample", "channel.downsample")
        span_at([engine, cli], "overlay", "channel.overlay")
        span_at([engine, cli], "extract_shadowing", "channel.overlay")
        span_at([cli], "save_trace", "channel.save_trace")
        span_at([engine], "overlap_lengths", "network.overlap", "network.overlap_calls")
        self._patch(engine, "superframe_layout",
                    self._count(engine.superframe_layout, "network.layout_calls"))

        # level_crossing_rate is called 161 times per lcr_curve: count it
        # everywhere, but give it a span only where the engine calls it
        # directly (the reference-threshold LCR), so its time is in metrics.lcr.
        crossing = self._count(metrics.level_crossing_rate, "metrics.crossing_evals")
        self._patch(metrics, "level_crossing_rate", crossing)
        self._patch(engine, "level_crossing_rate", self._span(crossing, "metrics.lcr"))
        span_at([engine, metrics], "lcr_curve", "metrics.lcr", "metrics.lcr_calls")
        self._patch(metrics.SinrSeries, "cadence_ms",
                    self._count(metrics.SinrSeries.cadence_ms, "metrics.cadence_checks"))
        self._patch(engine, "SinrSeries", self._count(metrics.SinrSeries, "metrics.series"))
        span_at([engine, metrics], "empirical_outage", "metrics.outage")
        span_at([engine], "threshold_at_outage", "metrics.quantile")

        self._patch(metrics, "write_curve_csv", self._write(metrics.write_curve_csv))
        for attr in ("write_summary_csv", "write_aggregate_csv"):
            self._patch(engine, attr, self._write(getattr(engine, attr)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis --------------------------------------------------------

    def root_seconds(self) -> float:
        return sum(s.end - s.start for s in self.spans if s.parent is None)

    def self_times(self) -> dict[str, float]:
        """Self seconds per layer in SPAN_LAYERS; they sum to root_seconds()."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        by_span = defaultdict(float)
        for index, span in enumerate(self.spans):
            by_span[span.name] += span.end - span.start - child_time[index]
        return {layer: by_span.get(_SPAN_FOR_LAYER.get(layer, layer), 0.0)
                for layer in SPAN_LAYERS}

    def counts(self) -> dict[str, int]:
        return {name: int(self.counters.get(name, 0)) for name in COUNTER_BASES}

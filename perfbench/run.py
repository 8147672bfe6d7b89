"""wbansim benchmark: end-to-end and per-layer metrics for three workloads.

One run:

    python3 perfbench/run.py --workload default --seed 7 --seconds 20 --trace 0

prints a human-readable table on stderr and, as the last line of stdout, one
JSON object with the keys correct, attempted, failed and metrics. With
``--trace 0`` the metrics are the end-to-end ones, measured with tracing off;
with ``--trace 1`` they are the per-layer ones from a traced run. End-to-end
times are rescaled to a fixed reference host speed (see calibrate.py); the
stderr table shows the raw seconds beside them.

    python3 perfbench/run.py --all [--record]

runs every workload untraced and traced and prints both tables; ``--record``
also rewrites perfbench/provenance.json (machine, versions, commit, golden
output digests and the measured figures).

The program is driven in-process through ``wbansim.cli.main`` with a single
sweep worker, from the ``src/`` tree of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

GOLDEN_SEED = 1
PROVENANCE = HERE / "provenance.json"
WORK = ROOT / ".perfbench_work"
SPANS_OUT = ROOT / ".perfbench_out"
SETUP_STARTS = 5      # cold processes per run; setup_s is their median
MIN_ITERATIONS = 3    # timed iterations per untraced run, whatever --seconds says
MIN_TRACED = 2        # traced iterations, so the counters can be compared
SELF_SUM_TOLERANCE = 0.01

END_TO_END = {
    "wall_s": "s",
    "packets_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    **{f"{layer}_s": "s" for layer in tracing.SPAN_LAYERS},
    **{name: ("bytes" if name == "cli.bytes_written" else "count")
       for name in tracing.COUNTER_BASES},
    "channel.fetch_useful_ratio": "ratio",
    "metrics.cadence_checks_per_series": "ratio",
    "trace.wall_s": "s",
    "trace.self_sum_frac": "ratio",
    "trace_overhead_frac": "ratio",
}

# Which end-to-end metric each layer metric should move, and where.
PREDICTIONS = [
    {"layer": "metrics.lcr_s, metrics.lcr_calls, metrics.crossing_evals, "
              "metrics.cadence_checks",
     "end_to_end": "wall_s", "workloads": ["default", "crowd"],
     "prediction": "LCR is most of wall_s on default and crowd; vectorising it "
                   "cuts cadence_checks from 162 per series to 1. Little change "
                   "on csv-traces."},
    {"layer": "metrics.outage_s, metrics.quantile_s", "end_to_end": "wall_s",
     "workloads": ["default", "crowd"], "prediction": "small share everywhere"},
    {"layer": "engine.assemble_s, engine.assemble_calls, channel.generate_s, "
              "channel.generate_calls, channel.fetch_useful_ratio",
     "end_to_end": "wall_s", "workloads": ["crowd"],
     "prediction": "a trace cache raises fetch_useful_ratio (0.23 on crowd) "
                   "and lowers wall_s on crowd; about 2 % of default"},
    {"layer": "channel.load_trace_s, channel.load_trace_calls, "
              "channel.downsample_s, channel.overlay_s",
     "end_to_end": "wall_s", "workloads": ["csv-traces"],
     "prediction": "a once-per-source CSV index lowers wall_s on csv-traces; "
                   "zero on the synthetic workloads, so no change there"},
    {"layer": "channel.save_trace_s", "end_to_end": "wall_s",
     "workloads": ["csv-traces"], "prediction": "gen-traces write path"},
    {"layer": "network.overlap_s, network.overlap_calls, network.layout_calls",
     "end_to_end": "wall_s", "workloads": ["default"],
     "prediction": "weights are recomputed per repetition; hoisting them per "
                   "pair divides overlap_calls by the repetitions"},
    {"layer": "engine.self_s", "end_to_end": "wall_s",
     "workloads": ["default", "crowd"],
     "prediction": "SINR, max-min selection, SinrSeries construction and "
                   "aggregation; batching repetitions also moves peak_rss_mb"},
    {"layer": "config.load_s", "end_to_end": "setup_s",
     "workloads": ["default", "crowd", "csv-traces"],
     "prediction": "config parsing cost shows in setup_s on every workload"},
    {"layer": "cli.write_s, cli.files_written, cli.bytes_written",
     "end_to_end": "wall_s", "workloads": ["crowd"],
     "prediction": "crowd writes over 200 curve files per sweep"},
]

SETUP_CODE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import wbansim
from wbansim.config import load_config
load_config(sys.argv[2])
elapsed = time.perf_counter() - start
sys.path.insert(0, sys.argv[3])
from calibrate import kernel_seconds
print(elapsed, *(kernel_seconds() for _ in range(3)))
"""


class BenchError(Exception):
    """The benchmark cannot run here; nothing is printed as a result."""


def import_wbansim():
    """Import wbansim from this checkout's src/ tree, and nowhere else."""
    src = ROOT / "src"
    if not (src / "wbansim" / "__init__.py").is_file():
        raise BenchError(f"no wbansim package under {src}")
    sys.path.insert(0, str(src))
    import wbansim.cli
    if Path(wbansim.__file__).resolve().parent != (src / "wbansim").resolve():
        raise BenchError(f"imported wbansim from {wbansim.__file__}, not from {src}")
    return wbansim


def platform_fingerprint() -> str:
    """Digest of what a floating-point result may depend on."""
    import numpy
    import scipy
    umath = getattr(numpy, "_core", getattr(numpy, "core", None))._multiarray_umath
    features = sorted(k for k, v in getattr(umath, "__cpu_features__", {}).items() if v)
    text = json.dumps([platform.machine(), platform.python_version(),
                       numpy.__version__, scipy.__version__, features])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Session:
    """Runs iterations of a plan and keeps the operation tally."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _call(self, op, tracer):
        from wbansim import cli
        try:
            return tracer.op(cli.main, op.argv) if tracer else cli.main(op.argv)
        except Exception:
            traceback.print_exc()
            return None

    def _settle(self, op, rc, expect: str | None) -> str:
        """Check one finished op; return the digest of its output tree."""
        self.attempted += 1
        problems = [f"{op.command}: exit code {rc}"] if rc != 0 else checks.check_output(op)
        digest = checks.tree_digest(op.out)
        if expect is not None and digest != expect:
            problems.append(f"{op.out}: output digest {digest[:12]} differs from {expect[:12]}")
        if problems:
            self.failed += 1
            self.problems += problems
        return digest

    def iteration(self, plan, tracer=None, expect: dict | None = None):
        """Run every op of the plan; return wall seconds and output digests."""
        shutil.rmtree(plan.out, ignore_errors=True)
        start = time.perf_counter()
        codes = [self._call(op, tracer) for op in plan.ops]
        wall = time.perf_counter() - start
        digests = {op.out.name: self._settle(op, rc, (expect or {}).get(op.out.name))
                   for op, rc in zip(plan.ops, codes)}
        return wall, digests

    def reference(self, plan, digests: dict) -> None:
        """Run the plan's reference op; it must reproduce an iteration output."""
        if plan.reference is None:
            return
        op, name = plan.reference
        self._settle(op, self._call(op, None), digests[name])


def measure_setup(config: Path, starts: int) -> tuple[float, float]:
    """Median cold-process time to import wbansim and load the config.

    Returns the median at the reference speed and the raw median.
    """
    times, kernels = [], []
    for _ in range(starts):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(ROOT / "src"),
                               str(config), str(HERE)], cwd=ROOT, capture_output=True,
                              text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"cold start failed: {proc.stderr.strip()}")
        elapsed, *kernel = (float(x) for x in proc.stdout.split())
        times.append(elapsed)
        kernels += kernel
    raw = statistics.median(times)
    return calibrate.scale(raw, statistics.median(kernels)), raw


def _untraced(session, plan, seconds) -> tuple[dict, float]:
    """End-to-end metrics, and the raw median wall seconds."""
    walls, expect = [], None
    kernels = [calibrate.kernel_seconds()]
    start = time.perf_counter()
    while len(walls) < MIN_ITERATIONS or time.perf_counter() - start < seconds:
        wall, digests = session.iteration(plan, expect=expect)
        kernels.append(calibrate.kernel_seconds())
        expect = expect or digests
        walls.append(wall)
    raw = statistics.median(walls)
    wall_s = calibrate.scale(raw, statistics.median(kernels))
    metrics = {"wall_s": wall_s, "packets_per_s": plan.packets / wall_s,
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    session.reference(plan, expect)
    return metrics, raw


def _traced(session, plan, seconds) -> dict:
    tracer = tracing.Tracer()
    plain, traced, selfs, counts, fractions = [], [], [], [], []
    expect = None
    start = time.perf_counter()
    while len(traced) < MIN_TRACED or time.perf_counter() - start < seconds:
        wall, digests = session.iteration(plan, expect=expect)
        expect = expect or digests
        plain.append(wall)
        tracer.reset()
        tracer.install()
        try:
            wall, _ = session.iteration(plan, tracer, expect)
        finally:
            tracer.uninstall()
        traced.append(wall)
        selfs.append(tracer.self_times())
        counts.append(tracer.counts())
        fractions.append(sum(selfs[-1].values()) / wall)
    session.reference(plan, expect)

    if any(c != counts[0] for c in counts):
        session.problems.append("exact counters differ between traced iterations "
                                "of one seed")
    if any(abs(f - 1.0) > SELF_SUM_TOLERANCE for f in fractions):
        session.problems.append(f"layer self times do not add up to the traced "
                                f"wall time: {fractions}")
    SPANS_OUT.mkdir(exist_ok=True)
    (SPANS_OUT / f"spans-{plan.name}.json").write_text(
        json.dumps([dataclasses.asdict(s) for s in tracer.spans]))

    metrics = {f"{layer}_s": statistics.median(s[layer] for s in selfs)
               for layer in tracing.SPAN_LAYERS}
    count = counts[0]
    metrics.update(count)
    metrics["channel.fetch_useful_ratio"] = (
        count["channel.fetch_distinct"] / count["channel.fetch_calls"])
    metrics["metrics.cadence_checks_per_series"] = (
        count["metrics.cadence_checks"] / count["metrics.series"])
    metrics["trace.wall_s"] = statistics.median(traced)
    metrics["trace.self_sum_frac"] = statistics.median(fractions)
    metrics["trace_overhead_frac"] = (statistics.median(traced)
                                      / statistics.median(plain) - 1.0)
    return metrics


def golden_digests(name: str) -> dict | None:
    """Recorded output digests of the golden seed, if valid on this platform."""
    if not PROVENANCE.is_file():
        return None
    record = json.loads(PROVENANCE.read_text())
    if record.get("platform_fingerprint") != platform_fingerprint():
        print("note: platform differs from the recording; golden digests not "
              "compared", file=sys.stderr)
        return None
    return record.get("golden", {}).get(name)


def measure(name: str, seed: int, seconds: float, trace: bool, *, tiny: bool = False,
            work: Path | None = None, setup_starts: int = SETUP_STARTS) -> dict:
    """One benchmark run; returns the result object that main prints."""
    work = work or WORK / f"{name}-{os.getpid()}"
    session, raw = Session(), {}
    try:
        golden = workloads.build(name, ROOT, work / "golden", GOLDEN_SEED, tiny)
        plan = workloads.build(name, ROOT, work / "run", seed, tiny)
        # The golden-seed iteration warms caches and lazy imports, and pins
        # the outputs to the ones recorded at the benchmark's commit.
        session.iteration(golden, expect=None if tiny else golden_digests(name))
        if trace:
            metrics = _traced(session, plan, seconds)
        else:
            metrics, raw["wall_s"] = _untraced(session, plan, seconds)
            metrics["setup_s"], raw["setup_s"] = measure_setup(plan.config, setup_starts)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = PER_LAYER if trace else END_TO_END
    return {"correct": session.failed == 0 and not session.problems,
            "attempted": session.attempted, "failed": session.failed,
            "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units.items()},
            "problems": session.problems, "raw": raw}


def report(name: str, result: dict, file) -> None:
    """Human-readable table of one run."""
    frac = result["failed"] / result["attempted"]
    print(f"[{name}] correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']} failed_frac={frac:.3g}", file=file)
    metrics = result["metrics"]
    for metric, entry in metrics.items():
        line = f"  {metric:<36} {entry['value']:>14.6g} {entry['unit']}"
        base = tracing.COUNTER_BASES.get(metric)
        if base and metrics[base]["value"]:
            line += (f"   ({entry['value'] / metrics[base]['value']:.4g} per {base}"
                     f" = {metrics[base]['value']})")
        if metric in result.get("raw", {}):
            line += f"   (raw {result['raw'][metric]:.6g} s at the host's speed)"
        print(line, file=file)
    for problem in result.get("problems", [])[:20]:
        print(f"  problem: {problem}", file=file)


def _machine() -> dict:
    import numpy
    import scipy
    import yaml
    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "pyyaml": yaml.__version__}
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=30).stdout
    except OSError:
        lscpu = ""
    for line in lscpu.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("Model name", "L2 cache", "L3 cache"):
            info[key.strip().lower().replace(" ", "_")] = value.strip()
    return info


def _git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def record_golden() -> dict:
    """Output digests of one golden-seed iteration of every workload."""
    golden = {}
    for name in workloads.NAMES:
        work = WORK / f"record-{name}-{os.getpid()}"
        session = Session()
        try:
            _, golden[name] = session.iteration(
                workloads.build(name, ROOT, work, GOLDEN_SEED))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if session.failed:
            raise BenchError(f"{name}: golden iteration failed: {session.problems}")
    return golden


def run_all(seed: int, seconds: float, record: bool) -> int:
    """Every workload untraced and traced, each in its own process."""
    provenance = {}
    if record:
        provenance = {
            "note": "Recorded by 'python3 perfbench/run.py --all --record'.",
            "git_commit": _git_commit(), "golden_seed": GOLDEN_SEED,
            "measured_seed": seed, "run_seconds": seconds,
            "machine": _machine(), "platform_fingerprint": platform_fingerprint(),
            "golden": record_golden(), "workloads": workloads.WHY,
            "predictions": PREDICTIONS, "counter_bases": tracing.COUNTER_BASES}
        # Written before measuring: the runs below check the new golden digests.
        PROVENANCE.write_text(json.dumps(provenance, indent=1) + "\n")
    measured, ok = {}, True
    for name in workloads.NAMES:
        measured[name] = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                raise BenchError(f"{name} --trace {trace} exited {proc.returncode}")
            result = json.loads(proc.stdout.splitlines()[-1])
            sys.stdout.write(proc.stderr)
            ok = ok and result["correct"]
            measured[name]["per_layer" if trace else "end_to_end"] = {
                m: e["value"] for m, e in result["metrics"].items()}
            measured[name]["failed_frac" if not trace else "traced_failed_frac"] = (
                result["failed"] / result["attempted"])
    if record:
        provenance["measured"] = measured
        PROVENANCE.write_text(json.dumps(provenance, indent=1) + "\n")
        print(f"wrote {PROVENANCE.relative_to(ROOT)}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    parser.add_argument("--record", action="store_true",
                        help="with --all: rewrite perfbench/provenance.json")
    args = parser.parse_args(argv)
    if not (args.all or args.workload):
        parser.error("give --workload or --all")
    try:
        import_wbansim()
        if args.all:
            return run_all(args.seed, args.seconds, args.record)
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    report(args.workload, result, sys.stderr)
    print(json.dumps({key: result[key]
                      for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record a checkout's benchmark figures in BENCH_<label>.json.

    python3 tools/bench_record.py --root <checkout> --label <label> [--runs N]

runs ``perfbench/run.py`` of the checkout at ``--root`` for every workload
its ``BENCHMARK.json`` lists, untraced (``--trace 0``, the end-to-end
metrics) and traced (``--trace 1``, the per-layer metrics), ``--runs`` times
each with seeds 1..N and the declared ``run_seconds``. Each run is its own
process. The file, written at the root of the repository this script sits
in, holds per workload the median of every metric over the runs, the
end-to-end values of each run, the attempted and failed operation counts,
whether every run was correct and, for each run that was not, its seed,
trace flag and the ``problem:`` lines it printed to stderr, and as
``outliers`` each end-to-end value further from its median than the
metric's ``bound`` (a fraction of the median), which it also prints as a
warning; plus the checkout's git commit and whether its tracked files
differ from it ("unknown" and null outside a git work tree), and the
host's processor count and CPU model. Runs alternate between workloads,
so a slow spell of the host spreads over all of them. SIGTERM ends the
running ``perfbench/run.py`` process before the script exits.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _git(root: Path, *args: str) -> str | None:
    """The output of a git command in ``root``, or None when git fails there."""
    proc = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, value = line.partition(":")
            if key.strip() == "model name":
                return value.strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def end_children_on_sigterm() -> None:
    """Make SIGTERM raise SystemExit, on which ``subprocess.run`` kills its running child."""
    def raise_exit(signum, frame):
        raise SystemExit(128 + signum)
    signal.signal(signal.SIGTERM, raise_exit)


def run_perfbench(root: Path, workload: str, seed: int, seconds: float, trace: int,
                  pycache_prefix: str | None = None) -> dict:
    """One ``perfbench/run.py`` process of the checkout at ``root``; its JSON result.

    A ``pycache_prefix`` becomes the ``PYTHONPYCACHEPREFIX`` of the process and of
    the children it starts: Python then reads and writes bytecode there and nowhere
    else. ``PYTHONDONTWRITEBYTECODE`` is dropped for them, so that what one run
    compiles into the prefix, the next run reads.
    """
    command = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    env = None
    if pycache_prefix is not None:
        env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        env["PYTHONPYCACHEPREFIX"] = pycache_prefix
    proc = subprocess.run(command, cwd=root, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} --seed {seed} --trace {trace} exited {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    print(f"{workload} --seed {seed} --trace {trace}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}", file=sys.stderr)
    # The JSON line carries no reason; a run that is not correct says why on stderr.
    result["problems"] = [line.split("problem: ", 1)[1] for line in proc.stderr.splitlines()
                          if line.lstrip().startswith("problem: ")]
    return result


def record(root: Path, runs: int) -> dict:
    """Every workload of the checkout, untraced and traced, ``runs`` times."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = float(spec["run_seconds"])
    results = {name: {0: [], 1: []} for name in names}
    for seed in range(1, runs + 1):
        for name in names:
            for trace in (0, 1):
                results[name][trace].append(run_perfbench(root, name, seed, seconds, trace))

    workloads = {}
    for name, by_trace in results.items():
        entry = {"correct": all(r["correct"] for rs in by_trace.values() for r in rs),
                 "attempted": sum(r["attempted"] for rs in by_trace.values() for r in rs),
                 "failed": sum(r["failed"] for rs in by_trace.values() for r in rs),
                 "problems": [{"seed": seed, "trace": trace, "problems": r["problems"]}
                              for trace, rs in by_trace.items()
                              for seed, r in enumerate(rs, start=1) if not r["correct"]]}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            metrics = by_trace[trace][0]["metrics"]
            entry[key] = {m: {"median": statistics.median(r["metrics"][m]["value"]
                                                          for r in by_trace[trace]),
                              "unit": metrics[m]["unit"]}
                          for m in metrics}
        for m, summary in entry["end_to_end"].items():
            summary["runs"] = [r["metrics"][m]["value"] for r in by_trace[0]]
        # The median hides a run that is far off it; name each such run.
        entry["outliers"] = [
            {"metric": m, "seed": seed, "value": value, "median": summary["median"]}
            for m, summary in entry["end_to_end"].items() if m in bounds
            for seed, value in enumerate(summary["runs"], start=1)
            if abs(value - summary["median"]) > bounds[m] * abs(summary["median"])]
        for o in entry["outliers"]:
            print(f"warning: {name} --seed {o['seed']}: {o['metric']} {o['value']:.4g} differs "
                  f"from the median {o['median']:.4g} by more than the bound "
                  f"({bounds[o['metric']]:g} of the median)", file=sys.stderr)
        workloads[name] = entry
    status = _git(root, "status", "--porcelain", "--untracked-files=no")
    return {"git_commit": _git(root, "rev-parse", "HEAD") or "unknown",
            "git_dirty": None if status is None else bool(status),
            "host": {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
                     "python": platform.python_version()},
            "command": "python3 perfbench/run.py --workload W --seed S "
                       f"--seconds {seconds:g} --trace 0|1",
            "seeds": list(range(1, runs + 1)), "workloads": workloads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, required=True,
                        help="checkout whose perfbench/run.py and src/ are measured")
    parser.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    parser.add_argument("--runs", type=int, default=3, help="runs per workload and trace")
    args = parser.parse_args(argv)
    end_children_on_sigterm()
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    result = {"label": args.label, **record(args.root.resolve(), args.runs)}
    out = REPO_ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out.name}")
    return 0 if all(w["correct"] and not w["failed"]
                    for w in result["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())

"""The gain rule, the no-regression verdict, seed ranges and bytecode prefixes of
tools/bench_pairs.py, how the benchmark tools end their child on SIGTERM, and what
tools/bench_record.py records of a checkout outside git, of a run that is not correct and
of a run far off its median, the bytecode prefix and warm-ups it records under, and the
cold commands it times."""

import argparse
import json
import os
import py_compile
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))

import bench_pairs  # noqa: E402
from bench_pairs import (pair_values, parse_seeds, regression, run_order,  # noqa: E402
                         verdict)
from bench_record import record  # noqa: E402

# Ten base runs whose quartiles are 1.0225 and 1.0675: a spread of 0.045.
BASE = [1.00 + 0.01 * k for k in range(10)]
NO_FAILURES = {"base": 0, "change": 0}


def test_nine_wins_of_ten_hold_and_eight_do_not():
    nine = [b - 0.5 for b in BASE[:9]] + [BASE[9] + 0.5]
    assert verdict(BASE, nine, "lower", NO_FAILURES) == (9, True)
    eight = [b - 0.5 for b in BASE[:8]] + [b + 0.5 for b in BASE[8:]]
    assert verdict(BASE, eight, "lower", NO_FAILURES) == (8, False)


def test_ties_count_for_neither_side():
    assert verdict(BASE, BASE, "lower", NO_FAILURES) == (0, False)
    assert verdict(BASE, BASE, "higher", NO_FAILURES) == (0, False)
    nine_and_a_tie = [b - 0.5 for b in BASE[:9]] + [BASE[9]]
    assert verdict(BASE, nine_and_a_tie, "lower", NO_FAILURES) == (9, True)


def test_a_higher_is_better_metric():
    faster = [b + 0.5 for b in BASE]
    assert verdict(BASE, faster, "higher", NO_FAILURES) == (10, True)
    assert verdict(BASE, faster, "lower", NO_FAILURES) == (0, False)


def test_a_margin_inside_the_base_spread_does_not_hold():
    # Every pair wins, but by 0.01, less than the base's quartile spread.
    assert verdict(BASE, [b - 0.01 for b in BASE], "lower", NO_FAILURES) == (10, False)


def test_more_failed_operations_on_the_change_side_do_not_hold():
    faster = [b - 0.5 for b in BASE]
    assert verdict(BASE, faster, "lower", {"base": 0, "change": 1}) == (10, False)
    assert verdict(BASE, faster, "lower", {"base": 2, "change": 2}) == (10, True)


def test_a_change_within_the_bound_is_no_worse():
    # 10 % slower, inside a 25 % bound, on a base whose spread (4.3 %) is inside it too.
    assert regression(BASE, [b * 1.10 for b in BASE], "lower", 0.25) == "no worse"
    assert regression(BASE, [b * 0.90 for b in BASE], "higher", 0.25) == "no worse"


def test_a_median_past_the_bound_is_worse():
    assert regression(BASE, [b * 1.30 for b in BASE], "lower", 0.25) == "worse"
    assert regression(BASE, [b * 0.70 for b in BASE], "higher", 0.25) == "worse"
    # Worse past the bound is reported as worse even when the base spreads wider.
    assert regression(BASE, [b * 1.30 for b in BASE], "lower", 0.01) == "worse"


def test_a_base_spread_past_the_bound_is_unresolved():
    # The base's quartiles lie 4.3 % of its median apart, past a 2 % bound.
    assert regression(BASE, [b * 1.01 for b in BASE], "lower", 0.02) == "unresolved"
    # Unless every change run beats every base run.
    faster = [BASE[0] - 0.01 * (k + 1) for k in range(10)]
    assert regression(BASE, faster, "lower", 0.02) == "no worse"
    assert regression(BASE, faster[:9] + [BASE[0]], "lower", 0.02) == "unresolved"


def test_each_pair_runs_x_y_y_x_and_the_opening_side_alternates():
    assert run_order(0) == ("base", "change", "change", "base")
    assert run_order(1) == ("change", "base", "base", "change")
    assert run_order(2) == run_order(0)
    for k in range(4):
        assert sorted(run_order(k)) == ["base", "base", "change", "change"]


def test_a_sides_pair_value_is_the_mean_of_its_two_runs():
    metrics = [{"name": "wall_s"}, {"name": "peak_rss_mb"}]
    runs = [{"metrics": {"wall_s": {"value": 1.0}, "peak_rss_mb": {"value": 100.0}}},
            {"metrics": {"wall_s": {"value": 1.5}, "peak_rss_mb": {"value": 102.0}}}]
    assert pair_values(runs, metrics) == {"wall_s": 1.25, "peak_rss_mb": 101.0}


def test_seed_ranges():
    assert parse_seeds("101..110") == list(range(101, 111))
    assert parse_seeds("7") == [7]
    with pytest.raises(argparse.ArgumentTypeError, match="empty seed range"):
        parse_seeds("110..101")
    for garbage in ("", "abc", "1..x", "1...3", "1-3"):
        with pytest.raises(argparse.ArgumentTypeError, match="expected seeds like"):
            parse_seeds(garbage)


# Stands in for perfbench/run.py: it records its pid, then sleeps past any test's patience.
STUB_RUN = """
import os, sys, time
from pathlib import Path
pid = Path(__file__).with_name("child.pid")
pid.with_suffix(".tmp").write_text(str(os.getpid()))
pid.with_suffix(".tmp").replace(pid)
time.sleep(120)
"""


@pytest.mark.parametrize("script,args", [
    ("bench_pairs.py", ["--base", "{stub}", "--change", "{stub}", "--workload", "w",
                        "--seeds", "1"]),
    ("bench_record.py", ["--root", "{stub}", "--label", "sigterm-test", "--runs", "1"]),
])
def test_sigterm_ends_the_running_benchmark_child(tmp_path, script, args):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(STUB_RUN)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "workloads": [{"name": "w"}], "end_to_end": []}))
    pid_file = tmp_path / "perfbench" / "child.pid"
    tool = subprocess.Popen([sys.executable, str(TOOLS / script),
                             *(arg.format(stub=tmp_path) for arg in args)],
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    child = None
    try:
        deadline = time.monotonic() + 60
        while not pid_file.exists():
            assert tool.poll() is None, f"{script} exited {tool.returncode} before its child"
            assert time.monotonic() < deadline, "the stub child never started"
            time.sleep(0.05)
        child = int(pid_file.read_text())
        tool.send_signal(signal.SIGTERM)
        assert tool.wait(timeout=60) == 128 + signal.SIGTERM
        # The tool killed and reaped its child before exiting, so the pid is gone.
        with pytest.raises(ProcessLookupError):
            os.kill(child, 0)
        child = None
    finally:
        if tool.poll() is None:
            tool.kill()
            tool.wait()
        if child is not None:
            try:
                os.kill(child, signal.SIGKILL)
            except ProcessLookupError:
                pass


# Stand in for the checkout's perfbench/workloads.py and perfbench/calibrate.py, and for
# wbansim.cli: every workload runs "simulate" then "sweep", the kernel always takes 0.5 s,
# and a command logs itself to $STUB_COLD_LOG, if set, sleeping 1 s in its first two runs.
STUB_WORKLOADS = """
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Op:
    command: str
    argv: list
    out: Path


@dataclass
class Plan:
    out: Path
    ops: list


def build(name, root, work, seed):
    out = work / "out"
    return Plan(out, [Op(c, [c, "--out", str(out / c)], out / c) for c in ("simulate", "sweep")])
"""

STUB_CALIBRATE = """
def kernel_seconds():
    return 0.5


def scale(seconds, kernel):
    return seconds * 0.25 / kernel
"""

STUB_CLI = """
import json, os, sys, time
command = sys.argv[1]
log = os.environ.get("STUB_COLD_LOG")
if log:
    previous = open(log).read().count(json.dumps(command)) if os.path.exists(log) else 0
    with open(log, "a") as handle:
        handle.write(json.dumps({"command": command,
                                 "prefix": os.environ.get("PYTHONPYCACHEPREFIX")}) + "\\n")
    time.sleep(1.0 if previous < 2 else 0.0)
if command == os.environ.get("STUB_COLD_FAIL"):
    sys.exit(f"stub: {command} failed")
"""


def _cold_stubs(root):
    """The files a recording's cold commands read, besides perfbench/run.py."""
    (root / "perfbench").mkdir(parents=True, exist_ok=True)
    (root / "perfbench" / "workloads.py").write_text(STUB_WORKLOADS)
    (root / "perfbench" / "calibrate.py").write_text(STUB_CALIBRATE)
    (root / "src" / "wbansim").mkdir(parents=True)
    (root / "src" / "wbansim" / "__init__.py").write_text("")
    (root / "src" / "wbansim" / "cli.py").write_text(STUB_CLI)


# Stands in for perfbench/run.py: one correct result with one end-to-end metric.
STUB_RESULT = """
import json
print(json.dumps({"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}))
"""


# Stands in for perfbench/run.py: a run that is not correct, says why on stderr, and exits 0.
STUB_INCORRECT = """
import json, sys
print("[w] correct=False attempted=1 failed=0", file=sys.stderr)
print("  problem: layer self times do not add up", file=sys.stderr)
print(json.dumps({"correct": False, "attempted": 1, "failed": 0,
                  "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}))
"""


def test_a_run_that_is_not_correct_keeps_its_problem_lines(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(STUB_INCORRECT)
    _cold_stubs(tmp_path)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "workloads": [{"name": "w"}], "end_to_end": []}))
    entry = record(tmp_path, 2)["workloads"]["w"]
    assert entry["correct"] is False
    assert entry["problems"] == [
        {"seed": seed, "trace": trace, "problems": ["layer self times do not add up"]}
        for trace in (0, 1) for seed in (1, 2)]
    # A correct run leaves no entry.
    (tmp_path / "perfbench" / "run.py").write_text(STUB_RESULT)
    assert record(tmp_path, 1)["workloads"]["w"]["problems"] == []


def test_a_checkout_outside_git_records_an_unknown_commit_and_dirtiness(tmp_path,
                                                                         monkeypatch):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(STUB_RESULT)
    _cold_stubs(tmp_path)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "workloads": [{"name": "w"}], "end_to_end": []}))
    # git looks for a repository no higher than tmp_path, which holds none.
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
    result = record(tmp_path, 1)
    assert result["git_commit"] == "unknown"
    assert result["git_dirty"] is None


# Stands in for perfbench/run.py: its wall_s and peak_rss_mb depend on --seed.
STUB_BY_SEED = """
import json, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
print(json.dumps({"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"wall_s": {"value": {1: 1.0, 2: 1.2, 3: 1.6}[seed], "unit": "s"},
                              "peak_rss_mb": {"value": 10.0 * seed, "unit": "MiB"}}}))
"""


def test_a_run_further_from_its_median_than_the_bound_is_flagged(tmp_path, capsys):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(STUB_BY_SEED)
    _cold_stubs(tmp_path)
    # peak_rss_mb spreads widest but declares no bound, so nothing judges it.
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "workloads": [{"name": "w"}],
         "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}]}))
    entry = record(tmp_path, 3)["workloads"]["w"]
    # Seed 1 is 0.2 s from the median of 1.2 s, inside 0.25 of it; seed 3 is 0.4 s off.
    assert entry["outliers"] == [{"metric": "wall_s", "seed": 3, "value": 1.6, "median": 1.2}]
    assert entry["end_to_end"]["wall_s"]["median"] == 1.2
    warnings = [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("warning:")]
    assert warnings == ["warning: w --seed 3: wall_s 1.6 differs from the median 1.2 by more "
                        "than the bound (0.25 of the median)"]


# Stands in for perfbench/run.py: it logs the bytecode prefix it runs under and whether
# the bytecode of a module beside it was already there, imports that module and prints a
# result, whose wall_s is 100 on a cold run and 1 on a warm one.
STUB_PREFIX = """
import importlib.util, json, os
from pathlib import Path
here = Path(__file__).resolve().parent
cached = Path(importlib.util.cache_from_source(str(here / "stubmod.py")))
warm = cached.exists()
import stubmod
with (here / "prefixes.log").open("a") as log:
    log.write(json.dumps({"prefix": os.environ.get("PYTHONPYCACHEPREFIX"),
                          "cached": str(cached), "warm": warm}) + "\\n")
print(json.dumps({"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"wall_s": {"value": 1.0 if warm else 100.0, "unit": "s"}}}))
"""


def test_each_side_runs_under_its_own_fresh_bytecode_prefix(tmp_path, capsys, monkeypatch):
    # Bytecode must reach the prefix even where writing it is switched off.
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    roots = {}
    for side in ("base", "change"):
        root = roots[side] = tmp_path / side
        (root / "perfbench").mkdir(parents=True)
        (root / "perfbench" / "run.py").write_text(STUB_PREFIX)
        (root / "perfbench" / "stubmod.py").write_text("VALUE = 1\n")
        (root / "BENCHMARK.json").write_text(json.dumps(
            {"run_seconds": 1, "workloads": [{"name": "w"}],
             "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower",
                             "bound": 0.25}]}))
    assert bench_pairs.main(["--base", str(roots["base"]), "--change", str(roots["change"]),
                             "--workload", "w", "--seeds", "1..2"]) == 0
    out = capsys.readouterr().out
    # The cold warm-up's wall_s of 100 is discarded: every recorded run reads 1.
    assert out.count("result discarded") == 2
    assert "wall_s         s     1 [1, 1]" in out
    prefixes = {}
    for side, root in roots.items():
        runs = [json.loads(line)
                for line in (root / "perfbench" / "prefixes.log").read_text().splitlines()]
        # One prefix for the warm-up and the side's four recorded runs: the warm-up
        # compiles, and the first recorded run already reads.
        assert len(runs) == 5
        assert len({run["prefix"] for run in runs}) == 1
        assert [run["warm"] for run in runs] == [False, True, True, True, True]
        prefix = prefixes[side] = Path(runs[0]["prefix"])
        assert Path(runs[0]["cached"]).is_relative_to(prefix)
        assert not (root / "perfbench" / "__pycache__").exists()
    assert prefixes["base"] != prefixes["change"]
    for prefix in prefixes.values():
        assert prefix.is_absolute()
        assert not any(prefix.is_relative_to(root) for root in roots.values())
        # The session made it and removes it.
        assert not prefix.exists()


def test_a_recording_runs_under_one_fresh_bytecode_prefix_after_warm_ups(tmp_path, capsys,
                                                                          monkeypatch):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(STUB_PREFIX)
    (tmp_path / "perfbench" / "stubmod.py").write_text("VALUE = 1\n")
    _cold_stubs(tmp_path)
    # Bytecode the checkout already holds warms no run.
    stale = tmp_path / "perfbench" / "__pycache__" / f"stubmod.{sys.implementation.cache_tag}.pyc"
    py_compile.compile(str(tmp_path / "perfbench" / "stubmod.py"), cfile=str(stale))
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "workloads": [{"name": "w"}, {"name": "v"}],
         "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}]}))
    workloads = record(tmp_path, 2)["workloads"]
    # The cold warm-up's wall_s of 100 is discarded: every recorded run reads 1.
    for name in ("w", "v"):
        assert workloads[name]["end_to_end"]["wall_s"]["runs"] == [1.0, 1.0]
        assert workloads[name]["outliers"] == []
    assert capsys.readouterr().err.count("result discarded") == 2
    runs = [json.loads(line)
            for line in (tmp_path / "perfbench" / "prefixes.log").read_text().splitlines()]
    # Two warm-ups, then 2 workloads x 2 trace flags x 2 seeds, all under one prefix:
    # the first warm-up compiles, and every later run reads.
    assert len(runs) == 2 + 8
    assert len({run["prefix"] for run in runs}) == 1
    assert [run["warm"] for run in runs] == [False] + [True] * 9
    prefix = Path(runs[0]["prefix"])
    assert prefix.is_absolute() and not prefix.is_relative_to(tmp_path)
    assert Path(runs[0]["cached"]).is_relative_to(prefix)
    # The session made it and removes it; the checkout's own bytecode is untouched.
    assert not prefix.exists()
    assert stale.exists()


def test_cold_command_s_is_the_median_of_fresh_processes_under_the_sessions_prefix(
        tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    log = tmp_path / "cold.log"
    monkeypatch.setenv("STUB_COLD_LOG", str(log))
    root = tmp_path / "checkout"
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(STUB_PREFIX)
    (root / "perfbench" / "stubmod.py").write_text("VALUE = 1\n")
    _cold_stubs(root)
    (root / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "workloads": [{"name": "w"}], "end_to_end": []}))
    cold = record(root, 1)["workloads"]["w"]["cold_command_s"]
    assert list(cold["ops"]) == ["simulate", "sweep"]
    for op in cold["ops"].values():
        # Two slow runs of five: the median is a fast one, where a mean would not be.
        assert len(op["runs"]) == 5
        assert op["raw"] == statistics.median(op["runs"]) < 1.0 <= sorted(op["runs"])[3]
        # Rescaled by the checkout's kernel: 0.25 reference seconds over 0.5 s.
        assert op["value"] == pytest.approx(op["raw"] * 0.5)
    assert cold["kernel_s"] == 0.5
    assert cold["raw"] == pytest.approx(sum(op["raw"] for op in cold["ops"].values()))
    assert cold["value"] == pytest.approx(sum(op["value"] for op in cold["ops"].values()))
    # Every command process ran under the prefix of the session's perfbench runs.
    commands = [json.loads(line) for line in log.read_text().splitlines()]
    assert [c["command"] for c in commands] == ["simulate", "sweep"] * 5
    runs = [json.loads(line)
            for line in (root / "perfbench" / "prefixes.log").read_text().splitlines()]
    prefixes = {run["prefix"] for run in runs} | {c["prefix"] for c in commands}
    assert len(prefixes) == 1
    prefix = Path(prefixes.pop())
    assert prefix.is_absolute() and not prefix.is_relative_to(root)
    assert not prefix.exists()
    # Loading the checkout's workloads.py left no bytecode beside it.
    assert not (root / "perfbench" / "__pycache__").exists()


def test_a_cold_command_that_fails_is_named(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("STUB_COLD_FAIL", "sweep")
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(STUB_RESULT)
    _cold_stubs(tmp_path)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "workloads": [{"name": "w"}], "end_to_end": []}))
    with pytest.raises(SystemExit) as exc:
        record(tmp_path, 1)
    assert str(exc.value).startswith("w: cold command sweep exited 1: sweep --out ")
    assert str(exc.value).endswith(str(Path("w", "out", "sweep")))
    assert "stub: sweep failed" in capsys.readouterr().err

"""Tests of the benchmark itself, at a tiny sizing of every workload.

Run with:  python3 -m pytest perfbench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

wbansim = run.import_wbansim()
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", workloads.NAMES)
@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_prints_with_its_unit(name, trace, section, tmp_path, capsys):
    original = wbansim.engine.lcr_curve
    result = run.measure(name, 5, 0, trace, tiny=True, work=tmp_path, setup_starts=1)
    assert result["correct"], result["problems"]
    assert result["attempted"] > 0 and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {m: e["unit"] for m, e in result["metrics"].items()} == declared

    run.report(name, result, sys.stdout)
    printed = capsys.readouterr().out
    for metric, unit in declared.items():
        assert re.search(rf"^  {re.escape(metric)} +\S+ {re.escape(unit)}\b", printed,
                         re.MULTILINE), metric
    if trace:
        assert wbansim.engine.lcr_curve is original
        assert result["metrics"]["metrics.cadence_checks_per_series"]["value"] == 162


def _set_last(path, value):
    lines = path.read_text().splitlines()
    threshold, _ = lines[-1].split(",")
    lines[-1] = f"{threshold},{value}"
    path.write_text("\n".join(lines) + "\n")


def _swap_schemes(run_dir):
    """Monotone, in range, but coop now lies above single somewhere."""
    single = (run_dir / "outage_single.csv").read_text()
    coop = (run_dir / "outage_coop.csv").read_text()
    (run_dir / "outage_single.csv").write_text(coop)
    (run_dir / "outage_coop.csv").write_text(single)


@pytest.mark.parametrize("corrupt", [
    _swap_schemes,
    lambda run_dir: _set_last(run_dir / "outage_coop.csv", 1.5),
    lambda run_dir: _set_last(run_dir / "outage_single.csv", 0.0),
    lambda run_dir: _set_last(run_dir / "lcr_coop.csv", -1.0),
], ids=["coop-above-single", "out-of-range", "decreasing", "negative-lcr"])
def test_corrupted_curve_csv_is_caught(corrupt, tmp_path):
    plan = workloads.build("default", run.ROOT, tmp_path, 5, tiny=True)
    session = run.Session()
    session.iteration(plan)
    simulate = plan.ops[0]
    assert session.failed == 0 and checks.check_output(simulate) == []
    corrupt(simulate.out)
    assert checks.check_output(simulate)


def test_corrupted_curve_written_by_the_program_fails_the_run(tmp_path, monkeypatch):
    write_curve_csv = wbansim.metrics.write_curve_csv

    def corrupting(curve, path, scheme, subject):
        write_curve_csv(curve, path, scheme, subject)
        if Path(path).name == "outage_coop.csv":
            _set_last(Path(path), 1.5)

    monkeypatch.setattr(wbansim.metrics, "write_curve_csv", corrupting)
    result = run.measure("default", 5, 0, False, tiny=True, work=tmp_path, setup_starts=1)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]


def test_changed_output_digest_is_a_failure(tmp_path):
    plan = workloads.build("default", run.ROOT, tmp_path, 5, tiny=True)
    session = run.Session()
    _, digests = session.iteration(plan)
    session.iteration(plan, expect=digests)
    assert session.failed == 0
    session.iteration(plan, expect={**digests, "sweep": "0" * 64})
    assert session.failed == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "default", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

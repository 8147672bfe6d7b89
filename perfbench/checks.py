"""Checks on the files a CLI invocation wrote, independent of wbansim's readers.

Every run directory holds outage and LCR curves for the single-link and
cooperative schemes. Since coop >= single for every packet, the coop outage
curve can nowhere exceed the single outage curve.
"""

from __future__ import annotations

import hashlib
import math
import os
from pathlib import Path

CURVES = ("outage_single.csv", "outage_coop.csv", "lcr_single.csv", "lcr_coop.csv")


def tree_digest(root: Path) -> str:
    """SHA-256 over every file's relative path and bytes, in sorted order."""
    digest = hashlib.sha256()
    root = Path(root)
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for filename in sorted(filenames):
            path = Path(dirpath) / filename
            digest.update(path.relative_to(root).as_posix().encode() + b"\0")
            digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def _read_curve(path: Path, kind: str) -> list[float]:
    lines = path.read_text().splitlines()
    if not lines or not lines[0].startswith(f"kind,{kind},"):
        raise ValueError(f"{path.name}: bad header {lines[:1]}")
    values = []
    for line in lines[1:]:
        threshold, value = line.split(",")
        float(threshold)
        values.append(float(value))
    if not values:
        raise ValueError(f"{path.name}: no rows")
    return values


def check_run_dir(run_dir: Path) -> list[str]:
    """Problems with the four curve CSVs of one run directory."""
    problems = []
    try:
        single = _read_curve(run_dir / "outage_single.csv", "outage")
        coop = _read_curve(run_dir / "outage_coop.csv", "outage")
        lcrs = [_read_curve(run_dir / f"lcr_{s}.csv", "lcr") for s in ("single", "coop")]
    except (OSError, ValueError) as exc:
        return [f"{run_dir}: unreadable curve: {exc}"]
    for name, curve in (("single", single), ("coop", coop)):
        if not all(0.0 <= v <= 1.0 for v in curve):
            problems.append(f"{run_dir}: outage_{name} leaves [0, 1]")
        if any(b < a for a, b in zip(curve, curve[1:])):
            problems.append(f"{run_dir}: outage_{name} decreases")
    if len(single) != len(coop) or any(c > s for c, s in zip(coop, single)):
        problems.append(f"{run_dir}: coop outage exceeds single outage")
    for lcr in lcrs:
        if not all(math.isfinite(v) and v >= 0.0 for v in lcr):
            problems.append(f"{run_dir}: negative or non-finite LCR")
    return problems


def _data_rows(path: Path) -> int:
    return len(path.read_text().splitlines()) - 1


def check_output(op) -> list[str]:
    """Problems with the output tree of one simulate, sweep or gen-traces call."""
    out = Path(op.out)
    if op.command == "gen-traces":
        return [] if any(out.glob("*.csv")) else [f"{out}: no trace files written"]
    run_dirs = [out] if op.command == "simulate" else sorted(out.glob("runs/*/rep*"))
    problems = []
    if len(run_dirs) != op.runs:
        problems.append(f"{out}: {len(run_dirs)} run directories, expected {op.runs}")
    for run_dir in run_dirs:
        problems += check_run_dir(run_dir)
    try:
        if _data_rows(out / "summary.csv") != 2 * op.runs:
            problems.append(f"{out}: summary.csv has the wrong number of rows")
        if op.command == "sweep" and _data_rows(out / "aggregate.csv") < 2:
            problems.append(f"{out}: aggregate.csv has no rows")
    except OSError as exc:
        problems.append(f"{out}: {exc}")
    return problems

"""Benchmark workloads: generated configs and the CLI invocations they run.

Each workload writes its YAML configs into a work directory and names the
``wbansim`` command lines of one iteration. The workload seed becomes the
config's master seed; the program receives nothing but these files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import yaml

WHY = {
    "default": "the shipped config every user starts with: the metrics layer "
               "(LCR) does almost all the work, channel assembly almost none",
    "crowd": "8 bodies x 3 sensors, all 56 ordered pairs: per-pair channel assembly, "
             "the three-sensor SINR loop, the multi-interferer sum and many output files",
    "csv-traces": "gen-traces at 15 ms then a sweep from those CSVs: the only path "
                  "through load_trace, downsample and the trace directory index",
}
NAMES = tuple(WHY)


@dataclass
class Op:
    """One CLI invocation and the output tree it writes."""

    command: str
    argv: list[str]
    out: Path
    runs: int                         # run directories it writes; 0 for gen-traces


@dataclass
class Plan:
    """One workload, set up in a work directory for one seed."""

    name: str
    config: Path                      # what load_config reads, for setup_s
    out: Path                         # every op of an iteration writes under it
    ops: list[Op]                     # one iteration, in order
    packets: int                      # victim sensor-packets scored per iteration
    # An op run once after the timed iterations, and the name of the
    # iteration output it must reproduce byte for byte.
    reference: tuple[Op, str] | None = None


def _body(subject: int, sensors) -> dict:
    return {"subject": subject, "hub": {"location": "C"},
            "relays": [{"location": "LH"}, {"location": "RH"}],
            "sensors": [{"location": loc} for loc in sensors]}


def _synthetic(sample_period_ms: float, duration_ms: float) -> dict:
    return {"source": "synthetic", "synthetic": {
        "sample_period_ms": sample_period_ms, "duration_ms": duration_ms,
        "on_body": {"mean_gain_db": -55.0, "shadow_sigma_db": 6.0,
                    "coherence_time_ms": 240.0},
        "inter_body": {"mean_gain_db": -70.0, "shadow_sigma_db": 6.0,
                       "coherence_time_ms": 500.0}}}


def _runs(cfg: dict, command: str) -> list[int]:
    """Victim subject of each run the command executes."""
    if command == "simulate":
        return [cfg["victim"]]
    if command == "sweep":
        return [v for v in cfg["sweep"]["victims"]
                for u in cfg["sweep"]["interferers"] if v != u] * cfg["repetitions"]
    return []


def _packets(cfg: dict, ops: list[Op]) -> int:
    sensors = {w["subject"]: len(w["sensors"]) for w in cfg["wbans"]}
    return sum(sensors[v] for op in ops for v in _runs(cfg, op.command)) * cfg["epochs"]


def _write(cfg: dict, path: Path) -> Path:
    path.write_text(yaml.safe_dump(cfg, sort_keys=False))
    return path


def _op(cfg: dict, command: str, config: Path, out: Path) -> Op:
    return Op(command, [command, "--config", str(config), "--out", str(out), "--quiet"],
              out, len(_runs(cfg, command)))


def build(name: str, root: Path, work: Path, seed: int, tiny: bool = False) -> Plan:
    """Write the workload's configs under ``work``; outputs go to ``work/out``.

    ``tiny`` shrinks every size for the benchmark's own tests.
    """
    work.mkdir(parents=True, exist_ok=True)
    out = work / "out"
    if name == "default":
        cfg = yaml.safe_load((root / "configs" / "default.yaml").read_text())
        cfg["seed"] = seed
        if tiny:
            cfg["epochs"], cfg["repetitions"] = 300, 2
            cfg["channels"]["synthetic"]["duration_ms"] = 120.0 * 600
        path = _write(cfg, work / "default.yaml")
        ops = [_op(cfg, "simulate", path, out / "simulate"),
               _op(cfg, "sweep", path, out / "sweep")]
        return Plan(name, path, out, ops, _packets(cfg, ops))

    if name == "crowd":
        bodies, epochs = (3, 200) if tiny else (8, 2000)
        subjects = list(range(1, bodies + 1))
        cfg = {"seed": seed, "epochs": epochs, "repetitions": 1,
               "wbans": [_body(s, ("HD", "RW", "LW")) for s in subjects],
               "victim": 1, "interferers": subjects[1:],
               "sweep": {"victims": subjects, "interferers": subjects},
               # 8 slots of 15 ms: the TDMA cycle equals the 120 ms epoch.
               "mac": {"n_coexisting": 8, "slot_len_ms": 15.0, "beacon_frac": 0.1},
               "epoch_period_ms": 120.0,
               "channels": _synthetic(120.0, 120.0 * 2 * epochs)}
        path = _write(cfg, work / "crowd.yaml")
        ops = [_op(cfg, "simulate", path, out / "simulate"),
               _op(cfg, "sweep", path, out / "sweep")]
        return Plan(name, path, out, ops, _packets(cfg, ops))

    if name == "csv-traces":
        epochs = 100 if tiny else 1000
        cfg = {"seed": seed, "epochs": epochs, "repetitions": 2,
               "wbans": [_body(s, ("HD",)) for s in (1, 2, 3)],
               "victim": 1, "interferers": [2, 3],
               "sweep": {"victims": [1], "interferers": [2, 3]},
               "mac": {"n_coexisting": 2, "slot_len_ms": 60.0, "beacon_frac": 0.1},
               "epoch_period_ms": 120.0,
               # Sampled at the 15 ms on-body campaign rate, decimated 8:1.
               "channels": _synthetic(15.0, 120.0 * 1.5 * epochs)}
        synthetic = _write(cfg, work / "synthetic.yaml")
        csv = _write({**cfg, "channels": {"source": "csv", "csv_dir": "out/traces"}},
                     work / "csv.yaml")
        # The README promises that a run from gen-traces files is
        # byte-identical to the synthetic run they were generated from.
        ops = [_op(cfg, "gen-traces", synthetic, out / "traces"),
               _op(cfg, "sweep", csv, out / "sweep")]
        return Plan(name, csv, out, ops, _packets(cfg, ops),
                    reference=(_op(cfg, "sweep", synthetic, work / "reference"), "sweep"))

    raise ValueError(f"unknown workload {name!r} (expected one of {', '.join(NAMES)})")

import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import read_curve_csv
from wbansim import engine
from wbansim.channel import ChannelTrace, LinkId, fspl_db, load_trace, save_trace
from wbansim.cli import main, trace_filename
from wbansim.config import load_config

CONFIG = """
wbans:
  - subject: 1
    hub: {location: C}
    relays: [{location: LH}, {location: RH}]
    sensors: [{location: HD}]
  - subject: 2
    hub: {location: C}
    relays: [{location: LH}, {location: RH}]
    sensors: [{location: HD}]
victim: 1
interferers: [2]
epochs: 60
seed: 5
repetitions: 2
mac: {n_coexisting: 2, slot_len_ms: 60.0}
channels:
  synthetic:
    duration_ms: 24000.0
    on_body: {mean_gain_db: -55.0, shadow_sigma_db: 6.0, coherence_time_ms: 240.0}
    inter_body: {mean_gain_db: -70.0, shadow_sigma_db: 6.0, coherence_time_ms: 500.0}
"""

# Simulate runs 1 against 2; sweep runs all six ordered pairs of three bodies.
THREE_BODY_SWEEP = CONFIG.replace("victim: 1\n", """  - subject: 3
    hub: {location: C}
    relays: [{location: LH}, {location: RH}]
    sensors: [{location: HD}]
victim: 1
sweep: {victims: [1, 2, 3], interferers: [1, 2, 3]}
""")


def csv_twin(text):
    """The config with its synthetic channel section read from the CSVs in traces/."""
    return text.split("channels:")[0] + "channels: {source: csv, csv_dir: traces}\n"


CSV_CONFIG = csv_twin(CONFIG)

RUN_FILES = {"outage_single.csv", "outage_coop.csv",
             "lcr_single.csv", "lcr_coop.csv", "summary.csv"}


def write_config(tmp_path, text=CONFIG, name="config.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def tree_bytes(root):
    root = Path(root)
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*.csv"))}


# ------------------------------------------------------------------- simulate

def test_simulate_writes_run_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["simulate", "--config", write_config(tmp_path), "--out", str(out)])
    assert rc == 0
    assert {p.name for p in out.iterdir()} == RUN_FILES
    curve, scheme, subject = read_curve_csv(out / "outage_coop.csv")
    assert (curve.kind, scheme, subject) == ("outage", "coop", "1")
    for scheme in ("single", "coop"):
        outage, _, _ = read_curve_csv(out / f"outage_{scheme}.csv")
        lcr, _, _ = read_curve_csv(out / f"lcr_{scheme}.csv")
        for curve in (outage, lcr):
            assert np.all(np.diff(curve.thresholds_db) > 0.0)
        assert np.all((outage.values >= 0.0) & (outage.values <= 1.0))
        assert np.all(np.diff(outage.values) >= 0.0)
        assert np.all(np.isfinite(lcr.values) & (lcr.values >= 0.0))
    assert "gain@10%" in capsys.readouterr().out


def test_simulate_is_byte_deterministic(tmp_path):
    config = write_config(tmp_path)
    for name in ("a", "b"):
        assert main(["simulate", "--config", config, "--out",
                     str(tmp_path / name), "--quiet"]) == 0
    assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")


def test_seed_flag_overrides_config(tmp_path):
    config = write_config(tmp_path)
    main(["simulate", "--config", config, "--out", str(tmp_path / "a"), "--quiet"])
    main(["simulate", "--config", config, "--out", str(tmp_path / "b"),
          "--seed", "99", "--quiet"])
    assert tree_bytes(tmp_path / "a") != tree_bytes(tmp_path / "b")


def test_simulate_reports_config_errors(tmp_path, capsys):
    broken = CONFIG.replace("mac: {n_coexisting: 2, slot_len_ms: 60.0}",
                            "mac: {n_coexisting: 2}")
    rc = main(["simulate", "--config", write_config(tmp_path, broken),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "config error" in err and "mac" in err and "slot_len_ms" in err


def test_simulate_reports_runtime_errors(tmp_path, capsys):
    (tmp_path / "traces").mkdir()
    csv_config = CONFIG.replace("""channels:
  synthetic:
    duration_ms: 24000.0
    on_body: {mean_gain_db: -55.0, shadow_sigma_db: 6.0, coherence_time_ms: 240.0}
    inter_body: {mean_gain_db: -70.0, shadow_sigma_db: 6.0, coherence_time_ms: 500.0}
""", """channels: {source: csv, csv_dir: traces}
""")
    rc = main(["simulate", "--config", write_config(tmp_path, csv_config),
               "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == 2
    assert "no channel trace" in capsys.readouterr().err


def test_invalid_shadow_params_fail_at_config_time(tmp_path, capsys):
    broken = CONFIG.replace("shadow_sigma_db: 6.0, coherence_time_ms: 500.0",
                            "shadow_sigma_db: 6.0, coherence_time_ms: 0.0")
    rc = main(["gen-traces", "--config", write_config(tmp_path, broken),
               "--out", str(tmp_path / "traces")])
    assert rc == 1
    assert "channels.synthetic" in capsys.readouterr().err


# ----------------------------------------------------------------- gen-traces

def test_gen_traces_writes_all_source_links(tmp_path):
    out = tmp_path / "traces"
    rc = main(["gen-traces", "--config", write_config(tmp_path),
               "--out", str(out), "--quiet"])
    assert rc == 0
    expected = {trace_filename(LinkId.parse(text)) for text in (
        "1:HD->1:C", "1:HD->1:LH", "1:HD->1:RH", "1:LH->1:C", "1:RH->1:C",
        "1:LH->1:RH", "2:LH->1:LH")}
    assert {p.name for p in out.iterdir()} == expected
    again = tmp_path / "again"
    main(["gen-traces", "--config", write_config(tmp_path), "--out",
          str(again), "--quiet"])
    assert tree_bytes(out) == tree_bytes(again)


def test_gen_traces_zero_sigma_gives_constant_columns(tmp_path):
    flat = CONFIG.replace("shadow_sigma_db: 6.0", "shadow_sigma_db: 0.0")
    out = tmp_path / "traces"
    main(["gen-traces", "--config", write_config(tmp_path, flat), "--out",
          str(out), "--quiet"])
    trace = load_trace(out / trace_filename(LinkId.parse("1:HD->1:C")))
    np.testing.assert_array_equal(trace.samples, np.full(200, -55.0))


def test_gen_traces_requires_synthetic_source(tmp_path, capsys):
    (tmp_path / "traces").mkdir()
    csv_config = CONFIG.replace("""channels:
  synthetic:
    duration_ms: 24000.0
    on_body: {mean_gain_db: -55.0, shadow_sigma_db: 6.0, coherence_time_ms: 240.0}
    inter_body: {mean_gain_db: -70.0, shadow_sigma_db: 6.0, coherence_time_ms: 500.0}
""", """channels: {source: csv, csv_dir: traces}
""")
    rc = main(["gen-traces", "--config", write_config(tmp_path, csv_config),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "synthetic" in capsys.readouterr().err


@pytest.mark.parametrize("command,text", [("simulate", CONFIG), ("sweep", THREE_BODY_SWEEP)])
def test_generated_traces_reproduce_the_synthetic_run(tmp_path, command, text):
    # gen-traces writes every link that simulate or a sweep pair reads.
    config = write_config(tmp_path, text)
    traces = tmp_path / "traces"
    main(["gen-traces", "--config", config, "--out", str(traces), "--quiet"])
    csv_config = write_config(tmp_path, csv_twin(text), name="csv_config.yaml")
    main([command, "--config", config, "--out", str(tmp_path / "synth"), "--quiet"])
    main([command, "--config", csv_config, "--out", str(tmp_path / "csv"), "--quiet"])
    assert tree_bytes(tmp_path / "synth") == tree_bytes(tmp_path / "csv")


def test_a_trace_period_too_fine_to_downsample_exits_2(tmp_path, capsys):
    traces = tmp_path / "traces"
    main(["gen-traces", "--config", write_config(tmp_path), "--out", str(traces), "--quiet"])
    for path in traces.glob("*.csv"):
        trace = load_trace(path)
        save_trace(ChannelTrace(trace.link, 5e-324, trace.samples), path)
    rc = main(["simulate", "--config", write_config(tmp_path, CSV_CONFIG, name="csv.yaml"),
               "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        "error: trace 1:HD->1:C: cannot downsample period 5e-324 ms to 120.0 ms: ratio inf")


# -------------------------------------------------------------- overlay-traces

def test_overlay_traces_builds_interference_channel(tmp_path):
    base = ChannelTrace(LinkId.parse("2:LH->1:LH"), 120.0,
                        np.array([-72.0, -73.0]))
    donor = ChannelTrace(LinkId.parse("1:LH->1:C"), 120.0,
                         np.array([-50.0, -51.0]))
    save_trace(base, tmp_path / "base.csv")
    save_trace(donor, tmp_path / "donor.csv")
    out_file = tmp_path / "out.csv"
    rc = main(["overlay-traces", "--part1", str(tmp_path / "base.csv"),
               "--shadowing-from", str(tmp_path / "donor.csv"),
               "--distance-m", "0.4", "--link", "2:LH->1:C",
               "--out-file", str(out_file), "--quiet"])
    assert rc == 0
    result = load_trace(out_file)
    assert str(result.link) == "2:LH->1:C"
    loss = fspl_db(0.4, 2.36e9)
    np.testing.assert_allclose(result.samples,
                               [-122.0 + loss, -124.0 + loss], rtol=1e-12)


def test_overlay_traces_rejects_period_mismatch(tmp_path, capsys):
    save_trace(ChannelTrace(LinkId.parse("2:LH->1:LH"), 120.0, np.array([-72.0])),
               tmp_path / "base.csv")
    save_trace(ChannelTrace(LinkId.parse("1:LH->1:C"), 60.0, np.array([-50.0])),
               tmp_path / "donor.csv")
    rc = main(["overlay-traces", "--part1", str(tmp_path / "base.csv"),
               "--shadowing-from", str(tmp_path / "donor.csv"),
               "--distance-m", "0.4", "--out-file", str(tmp_path / "out.csv"),
               "--quiet"])
    assert rc == 2
    assert "sample periods" in capsys.readouterr().err


def test_a_header_only_trace_exits_2_with_no_other_output(tmp_path, capsys):
    base = tmp_path / "base.csv"
    base.write_text("link=2:LH->1:LH,period_ms=120.0\n")
    save_trace(ChannelTrace(LinkId.parse("1:LH->1:C"), 120.0, np.array([-50.0])),
               tmp_path / "donor.csv")
    rc = main(["overlay-traces", "--part1", str(base),
               "--shadowing-from", str(tmp_path / "donor.csv"),
               "--distance-m", "0.4", "--out-file", str(tmp_path / "out.csv")])
    assert rc == 2
    assert capsys.readouterr() == ("", f"error: {base}:2: no data rows\n")


def test_overlay_traces_takes_no_seed(tmp_path, capsys):
    # overlay-traces draws nothing at random, so a seed would be ignored.
    with pytest.raises(SystemExit) as exit_info:
        main(["overlay-traces", "--seed", "5", "--part1", str(tmp_path / "base.csv"),
              "--shadowing-from", str(tmp_path / "donor.csv"), "--distance-m", "0.4",
              "--out-file", str(tmp_path / "out.csv")])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()



@pytest.mark.parametrize("command,flags,flag", [
    ("overlay-traces", ["--distance-m", "0"], "--distance-m"),
    ("overlay-traces", ["--distance-m", "-1"], "--distance-m"),
    ("overlay-traces", ["--distance-m", "nan"], "--distance-m"),
    ("overlay-traces", ["--distance-m", "0.4", "--frequency-hz", "-5"], "--frequency-hz"),
    ("overlay-traces", ["--distance-m", "0.4", "--link", "2:LH-1:C"], "--link"),
    # -1 and 2**64 would derive the streams of 2**64 - 1 and 0.
    ("simulate", ["--seed", "-1"], "--seed"),
    ("sweep", ["--seed", "18446744073709551616"], "--seed"),
    ("gen-traces", ["--seed", "five"], "--seed"),
])
def test_flag_errors_name_the_flag(tmp_path, capsys, command, flags, flag):
    out = tmp_path / "out"
    if command == "overlay-traces":
        for name, link in (("base", "2:LH->1:LH"), ("donor", "1:LH->1:C")):
            save_trace(ChannelTrace(LinkId.parse(link), 120.0, np.array([-60.0])),
                       tmp_path / f"{name}.csv")
        args = ["--part1", str(tmp_path / "base.csv"),
                "--shadowing-from", str(tmp_path / "donor.csv"), "--out-file", str(out)]
    else:
        args = ["--config", write_config(tmp_path), "--out", str(out)]
    with pytest.raises(SystemExit) as exit_info:
        main([command, *args, *flags])
    assert exit_info.value.code == 2
    assert f"argument {flag}: " in capsys.readouterr().err
    assert not out.exists()

# ---------------------------------------------------------------------- sweep

def test_sweep_outputs_and_determinism(tmp_path):
    config = write_config(tmp_path)
    for name in ("a", "b"):
        rc = main(["sweep", "--config", config, "--out", str(tmp_path / name),
                   "--quiet"])
        assert rc == 0
    out = tmp_path / "a"
    assert (out / "summary.csv").exists()
    assert (out / "aggregate.csv").exists()
    for rep in (0, 1):
        rep_dir = out / "runs" / "1x2" / f"rep{rep}"
        assert {p.name for p in rep_dir.iterdir()} == RUN_FILES - {"summary.csv"}
    assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")


def test_sweep_writes_every_combination(tmp_path):
    config = write_config(tmp_path, CONFIG + """
sweep:
  victims: [1, 2]
  interferers: [1, 2]
""")
    out = tmp_path / "out"
    assert main(["sweep", "--config", config, "--out", str(out), "--quiet"]) == 0
    assert {p.name for p in (out / "runs").iterdir()} == {"1x2", "2x1"}
    summary = (out / "summary.csv").read_text().splitlines()
    assert len(summary) == 1 + 2 * 2 * 2  # pairs x reps x schemes


def _csv_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def test_the_stdout_lines_restate_the_summary_and_aggregate_files(tmp_path, capsys):
    out = tmp_path / "simulate"
    assert main(["simulate", "--config", write_config(tmp_path), "--out", str(out)]) == 0
    want = [f"{row['scheme']}: thr@1%={float(row['thr_at_1pct_db']):.2f} dB  "
            f"thr@10%={float(row['thr_at_10pct_db']):.2f} dB  "
            f"gain@10%={float(row['gain_at_10pct_db']):.2f} dB  "
            f"lcr@ref={float(row['lcr_at_ref_hz']):.3f} Hz"
            for row in _csv_rows(out / "summary.csv")]
    assert capsys.readouterr().out.splitlines() == [*want, f"wrote {out}"]
    assert len(want) == 2

    out = tmp_path / "sweep"
    path = write_config(tmp_path, THREE_BODY_SWEEP, "sweep.yaml")
    assert main(["sweep", "--config", path, "--out", str(out)]) == 0
    want = [f"{row['combination']} {row['scheme']}: "
            f"thr@10%={float(row['mean_thr_at_10pct_db']):.2f}"
            f"±{float(row['std_thr_at_10pct_db']):.2f} dB  "
            f"gain@10%={float(row['mean_gain_at_10pct_db']):.2f} dB"
            for row in _csv_rows(out / "aggregate.csv")]
    assert capsys.readouterr().out.splitlines() == [*want, f"wrote {out}"]
    assert len(want) == 12


# ----------------------------------------------------------------- cold start

COLD_START = """
import sys
from wbansim.cli import main
from wbansim.config import load_config
load_config({default!r})
for argv in {commands!r}:
    assert main(argv) == 0, argv
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
"""


def test_no_command_loads_scipy(tmp_path):
    # Synthetic traces are drawn by wbansim's own AR(1) kernel, so no command needs scipy.
    root = Path(__file__).resolve().parent.parent
    config = write_config(tmp_path, CSV_CONFIG)
    synthetic = write_config(tmp_path, THREE_BODY_SWEEP, "synthetic.yaml")
    traces = tmp_path / "traces"
    traces.mkdir()
    rng = np.random.default_rng(0)
    links = engine.source_links(load_config(config))
    for link in links:
        save_trace(ChannelTrace(link, 120.0, rng.normal(-60.0, 6.0, 200)),
                   traces / trace_filename(link))
    overlay = ["overlay-traces", "--part1", str(traces / trace_filename(links[0])),
               "--shadowing-from", str(traces / trace_filename(links[1])),
               "--distance-m", "0.4", "--out-file", str(tmp_path / "overlay.csv"),
               "--quiet"]
    commands = [overlay,
                ["simulate", "--config", config, "--out", str(tmp_path / "csv"), "--quiet"],
                *([command, "--config", synthetic, "--out", str(tmp_path / command), "--quiet"]
                  for command in ("simulate", "sweep", "gen-traces"))]
    script = COLD_START.format(default=str(root / "configs" / "default.yaml"),
                               commands=commands)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "csv" / "summary.csv").exists()
    assert (tmp_path / "sweep" / "aggregate.csv").exists()
    assert any((tmp_path / "gen-traces").glob("*.csv"))


# ------------------------------------------------- byte identity across processes

# Runs every command in a fresh interpreter and prints one digest of the files they wrote.
# It first checks that the SIMD groups it was asked to switch off are off: numpy ignores
# a name it does not know without a word.
ACROSS_PROCESSES = """
import hashlib, os, sys
from pathlib import Path
from numpy._core import _multiarray_umath as umath
off = os.environ.get("NPY_DISABLE_CPU_FEATURES", "").split()
assert not [group for group in off if umath.__cpu_features__.get(group)], off
from wbansim.cli import main
config, out = sys.argv[1], Path(sys.argv[2])
for command in ("simulate", "sweep", "gen-traces"):
    assert main([command, "--config", config, "--out", str(out / command), "--quiet"]) == 0
digest = hashlib.sha256()
for path in sorted(p for p in out.rglob("*") if p.is_file()):
    digest.update(str(path.relative_to(out)).encode() + b"\\0" + path.read_bytes())
print(len(off), digest.hexdigest())
"""


def test_outputs_do_not_depend_on_the_process_hash_seed_or_simd_level(tmp_path):
    from numpy._core._multiarray_umath import __cpu_dispatch__

    root = Path(__file__).resolve().parent.parent
    config = write_config(tmp_path, THREE_BODY_SWEEP)
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONHASHSEED", "NPY_DISABLE_CPU_FEATURES")}
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), env.get("PYTHONPATH", "")])
    setups = {"native": {}, "hash seed 0": {"PYTHONHASHSEED": "0"},
              "hash seed 12345": {"PYTHONHASHSEED": "12345"},
              "no SIMD dispatch": {"NPY_DISABLE_CPU_FEATURES": " ".join(__cpu_dispatch__)}}
    digests = {}
    for k, (name, extra) in enumerate(setups.items()):
        proc = subprocess.run([sys.executable, "-c", ACROSS_PROCESSES, config,
                               str(tmp_path / f"out{k}")],
                              env={**env, **extra}, capture_output=True, text=True)
        assert proc.returncode == 0, (name, proc.stderr)
        off, digests[name] = proc.stdout.split()
        assert int(off) == (len(__cpu_dispatch__) if "NPY_DISABLE_CPU_FEATURES" in extra else 0)
    assert len(set(digests.values())) == 1, digests


# ------------------------------------------------------------ benchmark hooks

def test_the_benchmark_tracer_hooks_are_live_and_restored(tmp_path, monkeypatch):
    # perfbench/tracing.py wraps wbansim functions at module and class
    # attributes it names by string; a rename that breaks one fails here.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import tracing

    config = write_config(tmp_path, THREE_BODY_SWEEP)
    tracer = tracing.Tracer()
    tracer.install()
    patched = list(tracer._patches)
    seen = {}
    try:
        for command in ("simulate", "sweep", "gen-traces"):
            tracer.reset()
            rc = tracer.op(main, [command, "--config", config,
                                  "--out", str(tmp_path / command), "--quiet"])
            assert rc == 0
            seen[command] = tracer.counts(), {span.name for span in tracer.spans}
    finally:
        tracer.uninstall()
    assert patched
    assert all(getattr(owner, attr) is original for owner, attr, original in patched)
    # Each wrapper sits where the simulate and sweep paths look its function up.
    for command in ("simulate", "sweep"):
        counts, spans = seen[command]
        for name in ("metrics.series", "metrics.lcr_calls", "metrics.crossing_evals",
                     "engine.assemble_calls", "channel.fetch_calls", "channel.generate_calls",
                     "network.layout_calls", "network.overlap_calls", "cli.files_written"):
            assert counts[name] > 0, (command, name)
        assert {"config.load", "engine.run", "engine.assemble", "channel.downsample",
                "channel.overlay", "metrics.outage", "metrics.quantile", "cli.write"} <= spans, \
            command
    counts, spans = seen["gen-traces"]
    assert counts["channel.fetch_calls"] == counts["channel.generate_calls"] > 0
    assert {"config.load", "channel.save_trace"} <= spans

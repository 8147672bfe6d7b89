import contextlib
import io
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wbansim import cli, config as config_module, engine
from wbansim.channel import BodyLocation, FieldError, LinkId
from helpers import C, HD, LH, LW, RH, sinr_blocks, with_on_body_coherence
from wbansim.cli import main
from wbansim.config import load_config
from wbansim.engine import (ConfigError, CsvChannelSource, ExperimentConfig, RadioConfig,
                            SyntheticChannelSource, run, sweep)
from wbansim.network import NodeSpec, WbanConfig

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
DEFAULT_CONFIG = ROOT / "configs" / "default.yaml"

BASE = """
wbans:
  - subject: 1
    hub: {location: C}
    relays:
      - {location: LH}
      - {location: RH}
    sensors:
      - {location: HD}
  - subject: 2
    hub: {location: C}
    relays:
      - {location: LH}
      - {location: RH}
    sensors:
      - {location: HD}
victim: 1
interferers: [2]
epochs: 50
mac:
  n_coexisting: 2
  slot_len_ms: 60.0
channels:
  synthetic:
    duration_ms: 60000.0
    on_body: {mean_gain_db: -55.0, shadow_sigma_db: 6.0, coherence_time_ms: 240.0}
    inter_body: {mean_gain_db: -70.0, shadow_sigma_db: 6.0, coherence_time_ms: 500.0}
"""


def write_config(tmp_path, text=BASE, name="config.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_loads_defaults(tmp_path):
    config = load_config(write_config(tmp_path))
    assert [w.subject for w in config.wbans] == [1, 2]
    assert config.victim_subject == 1
    assert config.interferer_subjects == (2,)
    assert config.epochs == 50
    assert config.mac.cycle_ms == 120.0
    assert config.mac.beacon_frac == 0.1
    assert config.noise.noise_floor_dbm == -100.0
    assert config.master_seed == 0
    assert config.epoch_period_ms == 120.0
    assert config.interferer_source_location is BodyLocation.LEFT_HIP
    assert config.lcr_ref_threshold_db == 5.0
    assert isinstance(config.channels, SyntheticChannelSource)
    assert config.channels.on_body.coherence_time_ms == 240.0
    assert config.thresholds_db.size == 161


def test_seed_sources(tmp_path):
    path = write_config(tmp_path, BASE + "\nseed: 11\n")
    assert load_config(path).master_seed == 11
    assert load_config(path, seed_override=3).master_seed == 3
    # Seeds are taken in [0, 2**64), so that no two of them derive the same streams.
    for seed in (0, 2**64 - 1):
        path = write_config(tmp_path, BASE + f"seed: {seed}\n")
        assert load_config(path).master_seed == seed
    for seed in (-1, 2**64, 2**65 + 5):
        path = write_config(tmp_path, BASE + f"seed: {seed}\n")
        with pytest.raises(ConfigError, match=re.escape(f"seed must be in [0, 2**64), "
                                                        f"got {seed}")):
            load_config(path)


def test_missing_keys_are_named(tmp_path):
    text = BASE.replace("  slot_len_ms: 60.0\n", "")
    with pytest.raises(ConfigError, match="mac: missing key 'slot_len_ms'"):
        load_config(write_config(tmp_path, text))
    with pytest.raises(ConfigError, match="missing key 'victim'"):
        load_config(write_config(tmp_path, text=BASE.replace("victim: 1\n", "")))


def test_bad_values_are_named(tmp_path):
    with pytest.raises(ConfigError, match="unknown body location"):
        load_config(write_config(tmp_path, BASE.replace("{location: HD}",
                                                        "{location: XX}")))
    with pytest.raises(ConfigError, match="epochs"):
        load_config(write_config(tmp_path, BASE.replace("epochs: 50", "epochs: many")))
    # YAML reads on, off, yes and no as booleans: no number key takes them.
    for old, new, message in [
            ("{location: HD}", "{location: HD, tx_power_dbm: off}",
             "wbans[0].sensors[0].tx_power_dbm: expected a number, got False"),
            ("slot_len_ms: 60.0", "slot_len_ms: yes",
             "mac.slot_len_ms: expected a number, got True"),
            ("shadow_sigma_db: 6.0", "shadow_sigma_db: on",
             "channels.synthetic.on_body.shadow_sigma_db: expected a number, got True")]:
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_config(write_config(tmp_path, BASE.replace(old, new, 1)))
    for bad in ("shadow_sigma_db: -6.0, coherence_time_ms: 240.0",
                "shadow_sigma_db: .inf, coherence_time_ms: 240.0",
                "shadow_sigma_db: 6.0, coherence_time_ms: .inf"):
        with pytest.raises(ConfigError, match="channels.synthetic.on_body"):
            load_config(write_config(tmp_path, BASE.replace(
                "shadow_sigma_db: 6.0, coherence_time_ms: 240.0", bad)))
    for bad in (".nan", ".inf", "-.inf"):
        with pytest.raises(ConfigError, match=r"metrics\.lcr_ref_threshold_db"):
            load_config(write_config(
                tmp_path, BASE + f"metrics:\n  lcr_ref_threshold_db: {bad}\n"))
    for bad in ("-0.40", ".nan", "0", ".inf"):
        with pytest.raises(ConfigError, match=re.escape("radio.link_distances_m.C-LH")):
            load_config(write_config(
                tmp_path, BASE + f"radio:\n  link_distances_m:\n    C-LH: {bad}\n"))
    for bad in ("-5", ".nan", "0", ".inf"):
        with pytest.raises(ConfigError, match=re.escape("radio.frequency_hz")):
            load_config(write_config(tmp_path, BASE + f"radio:\n  frequency_hz: {bad}\n"))
    for bad in (".inf", ".nan"):
        with pytest.raises(ConfigError, match="channels.synthetic: duration_ms"):
            load_config(write_config(tmp_path, BASE.replace(
                "duration_ms: 60000.0", f"duration_ms: {bad}")))
        with pytest.raises(ConfigError, match="channels.synthetic: sample_period_ms"):
            load_config(write_config(tmp_path, BASE.replace(
                "duration_ms: 60000.0", f"duration_ms: 60000.0\n    sample_period_ms: {bad}")))
    # Each factor is finite, their product is not.
    with pytest.raises(ConfigError, match=re.escape(
            "mac: n_coexisting * slot_len_ms must be finite, got 2 * 1e+308 = inf")):
        load_config(write_config(tmp_path, BASE.replace("slot_len_ms: 60.0",
                                                        "slot_len_ms: 1.0e308")))
    # A dB quantity whose linear value is not a finite float fails at load, by
    # key, as do a victim sensor or noise floor of 0 mW, an override that no
    # run reads, a node count out of range, and a distance, which the record
    # names by its pair's sorted spelling.
    head, tail = BASE.rsplit("hub: {location: C}", 1)
    for text, key in [
            (BASE + "radio: {link_distances_m: {LH-C: .nan}}\n",
             "radio.link_distances_m.C-LH: expected a positive finite number, got nan"),
            (BASE.replace("      - {location: RH}\n",
                          "      - {location: RH}\n      - {location: HD}\n", 1),
             "wbans[0].relays: exactly two relay nodes are required"),
            (BASE.replace("      - {location: HD}\n", "      - {location: HD}\n      - "
                          "{location: LW}\n      - {location: RW}\n      - {location: B}\n", 1),
             "wbans[0].sensors: one to three sensor nodes are required"),
            (head + "hub: {location: C, tx_power_dbm: 4000}" + tail,
             "wbans[1].hub.tx_power_dbm"),
            (BASE.replace("{location: HD}", "{location: HD, tx_power_dbm: 4000}", 1),
             "wbans[0].sensors[0].tx_power_dbm"),
            (BASE.replace("{location: HD}", "{location: HD, tx_power_dbm: -4000}", 1),
             "wbans[0].sensors[0].tx_power_dbm"),
            (BASE + "noise: {noise_floor_dbm: 4000}\n", "noise.noise_floor_dbm"),
            (BASE + "noise: {noise_floor_dbm: -4000}\n", "noise.noise_floor_dbm"),
            (BASE.replace("mean_gain_db: -55.0", "mean_gain_db: 1.0e308"),
             "channels.synthetic.on_body.mean_gain_db"),
            *[(BASE + f'    overrides: {{"{link}": {{mean_gain_db: -40.0}}}}\n' + sweep_text,
               f"channels.synthetic.overrides.{link}: no run reads this link")
              for link, sweep_text in [
                  ("9:HD->9:C", ""),
                  ("1:LW->1:C", ""),  # subject 1 has no LW node
                  ("2:HD->2:C", ""),  # subject 2 is never a victim
                  ("2:HD->2:C", "sweep: {victims: [1], interferers: [2]}\n"),
                  ("2:LH->1:C", "")]]]:  # overlaid from 2:LH->1:LH, never fetched
        with pytest.raises(ConfigError, match=f"^{re.escape(key)}"):
            load_config(write_config(tmp_path, text))


@pytest.mark.parametrize("text", [
    BASE.replace("{location: HD}", "{location: HD, tx_power_dbm: 3050}", 1),
    BASE + "noise: {noise_floor_dbm: -3150}\n",
    BASE.replace("shadow_sigma_db: 6.0", "shadow_sigma_db: 3000", 1)],
    ids=["victim sensor at 3050 dBm", "noise floor at -3150 dBm", "on-body sigma 3000 dB"])
def test_an_sinr_beyond_float_range_names_the_sensor_and_scheme(tmp_path, text):
    # Each of these loads: no rule on one value can bound the SINR it leads to.
    load_config(write_config(tmp_path, text))
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        rc = main(["simulate", "--config", str(write_config(tmp_path, text)),
                   "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == 2
    assert re.fullmatch(r"error: wbans\[0\]\.sensors\[0\]: the single SINR is beyond "
                        r"float range in [1-9]\d* of 50 epochs\n", stderr.getvalue())


THREE_BODIES = BASE.replace("victim: 1\ninterferers: [2]\n", """  - subject: 3
    hub: {location: C}
    relays:
      - {location: LH}
      - {location: RH}
    sensors:
      - {location: HD}
victim: 1
interferers: [2, 3]
""")


@pytest.mark.parametrize("base,link,sweep_text", [
    (BASE, "1:HD->1:C", ""),
    (BASE, "1:LH->1:RH", ""),              # donates the shadowing of 2:LH->1:RH
    (BASE, "2:LH->1:LH", ""),
    (BASE, "2:HD->2:C", "sweep: {victims: [1, 2], interferers: [1, 2]}\n"),
    (BASE, "1:LH->2:LH", "sweep: {victims: [2], interferers: [1]}\n"),
    # Read by simulate's pair, not by any sweep pair.
    (THREE_BODIES, "3:LH->1:LH", ""),
    (BASE, "1:HD->1:C", "sweep: {victims: [2], interferers: [1]}\n")])
def test_an_override_that_simulate_or_a_sweep_pair_reads_loads_and_runs(
        tmp_path, base, link, sweep_text):
    text = base + f'    overrides: {{"{link}": {{mean_gain_db: -40.0}}}}\n' + sweep_text
    config = load_config(write_config(tmp_path, text))
    assert config.channels.overrides[LinkId.parse(link)].mean_gain_db == -40.0
    run(config)
    sweep(config)


def _default_overriding(link: str) -> ExperimentConfig:
    """The default config, rebuilt in Python with an override on ``link``."""
    default = load_config(DEFAULT_CONFIG)
    overrides = {LinkId.parse(link): default.channels.on_body}
    return replace(default, channels=replace(default.channels, overrides=overrides))


def _wban(relays=(LH, RH), sensors=(HD,)) -> WbanConfig:
    return WbanConfig(1, NodeSpec(C), tuple(map(NodeSpec, relays)),
                      tuple(map(NodeSpec, sensors)))


@pytest.mark.parametrize("build,field", [
    pytest.param(lambda: RadioConfig(frequency_hz=0.0), "frequency_hz", id="frequency 0"),
    *[pytest.param(lambda m=metres: RadioConfig(link_distances_m={("C", "LH"): m}),
                   "link_distances_m.C-LH", id=f"distance {metres}")
      for metres in (0.0, math.nan, math.inf)],
    pytest.param(lambda: _wban(relays=(LH,)), "relays", id="1 relay"),
    pytest.param(lambda: _wban(relays=(LH, RH, HD)), "relays", id="3 relays"),
    pytest.param(lambda: _wban(sensors=()), "sensors", id="0 sensors"),
    pytest.param(lambda: _wban(sensors=(HD, LW, BodyLocation.RIGHT_WRIST,
                                        BodyLocation.BACK)), "sensors", id="4 sensors"),
    pytest.param(lambda: _default_overriding("1:LW->1:C"),
                 "channels.synthetic.overrides.1:LW->1:C", id="override no run reads"),
])
def test_a_config_built_in_python_meets_every_record_rule(build, field):
    # No loader runs: each record holds its rule, and dataclasses.replace runs it.
    with pytest.raises((FieldError, ConfigError)) as raised:
        build()
    assert str(raised.value).startswith(f"{field}: ")
    if isinstance(raised.value, FieldError):
        assert raised.value.field == field


@pytest.mark.parametrize("sweep_text,key", [
    ("sweep: {victims: [1], interferers: []}\n", "sweep.interferers"),
    ("sweep: {victims: []}\n", "sweep.victims")], ids=["interferers", "victims"])
def test_an_empty_sweep_list_fails_at_load(tmp_path, sweep_text, key):
    # The record reads an empty list as the key left out, which sweeps the default.
    with pytest.raises(ConfigError, match=f"^{re.escape(key)}: expected a nonempty list "
                                          r"of integers, got \[\]$"):
        load_config(write_config(tmp_path, BASE + sweep_text))


@pytest.mark.parametrize("text,message", [
    (BASE + "start_indices: ~\n", "start_indices: expected a list of integers, got None"),
    (BASE.replace("interferers: [2]", "interferers: ~"),
     "interferers: expected a list of integers, got None"),
    (BASE + "sweep: {victims: ~}\n",
     "sweep.victims: expected a nonempty list of integers, got None")],
    ids=["start_indices", "interferers", "sweep.victims"])
def test_a_null_list_fails_at_load(tmp_path, text, message):
    # A null is no list: it neither leaves the starts to be drawn nor sweeps the default.
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        load_config(write_config(tmp_path, text))


def test_two_spellings_of_one_overridden_link_fail_at_load(tmp_path):
    text = BASE + ('    overrides: {"1:HD->1:C": {mean_gain_db: -40.0}, '
                   '"1:hd->1:c": {mean_gain_db: -45.0}}\n')
    with pytest.raises(ConfigError, match=re.escape(
            "channels.synthetic.overrides.1:hd->1:c: the link 1:HD->1:C is overridden twice, "
            "also by channels.synthetic.overrides.1:HD->1:C")):
        load_config(write_config(tmp_path, text))


THREE_BODY_SWEEP = THREE_BODIES + "sweep: {victims: [1, 2, 3], interferers: [1, 2, 3]}\n"


def test_a_loaded_config_is_the_only_one_built(tmp_path, monkeypatch):
    built = []
    post_init = ExperimentConfig.__post_init__
    monkeypatch.setattr(ExperimentConfig, "__post_init__",
                        lambda self: built.append(self) or post_init(self))
    config = load_config(write_config(tmp_path, THREE_BODY_SWEEP))
    assert built == [config]

    def refuse(self):
        raise AssertionError("an ExperimentConfig was built after load")

    # The commands run every pair from the loaded config and check nothing again.
    monkeypatch.setattr(ExperimentConfig, "__post_init__", refuse)
    monkeypatch.setattr(cli, "load_config", lambda path, seed: config)
    for command in ("simulate", "sweep", "gen-traces"):
        assert main([command, "--config", "loaded.yaml", "--out", str(tmp_path / command),
                     "--quiet"]) == 0


def test_a_sweep_pair_runs_as_simulate_of_that_pair(tmp_path, monkeypatch):
    starts = (0, 123)
    # The blocks each sweep run scores, by victim, interferers and start.
    swept_blocks, score = {}, engine._sinr_db

    def scored(*args):
        swept_blocks[args[1], args[2], args[5]] = blocks = score(*args)
        return blocks

    monkeypatch.setattr(engine, "_sinr_db", scored)
    swept = sweep(load_config(write_config(
        tmp_path, THREE_BODY_SWEEP + f"repetitions: 2\nstart_indices: {list(starts)}\n")))
    monkeypatch.undo()
    assert len(swept.runs) == len(swept_blocks) == 6 * len(starts)
    for result in swept.runs:
        (foe,) = result.interferer_subjects
        start = starts[result.rep]
        text = THREE_BODY_SWEEP.replace("victim: 1\ninterferers: [2, 3]\n",
                                        f"victim: {result.victim_subject}\n"
                                        f"interferers: [{foe}]\n")
        pair = load_config(write_config(tmp_path, text + f"start_indices: [{start}]\n",
                                        "pair.yaml"))
        (alone,) = run(pair).runs
        assert alone.start_index == result.start_index == start
        blocks = swept_blocks[result.victim_subject, (foe,), start]
        for scheme, block in sinr_blocks(pair).items():
            assert blocks[scheme].tobytes() == block.tobytes()
            for kind, curve in result.curves[scheme].items():
                assert curve.values.tobytes() == alone.curves[scheme][kind].values.tobytes()
        assert result.summary.tobytes() == alone.summary.tobytes()


def test_mute_power_spelling(tmp_path):
    text = BASE.replace("      - {location: LH}\n",
                        "      - {location: LH, tx_power_dbm: -inf}\n", 1)
    head, tail = text.rsplit("{location: HD}", 1)
    config = load_config(write_config(tmp_path, head + "{location: HD, tx_power_dbm: mute}"
                                      + tail))
    relay, interferer = config.wban(1).relays[0], config.wban(2).sensors[0]
    assert relay.tx_power_dbm == interferer.tx_power_dbm == -math.inf
    assert relay.tx_power_mw == interferer.tx_power_mw == 0.0


def test_a_muted_sweep_victim_sensor_fails_at_load(tmp_path):
    # Subject 2's muted sensor is fine while it only interferes, not as a sweep victim.
    head, tail = BASE.rsplit("      - {location: HD}\n", 1)
    text = head + "      - {location: HD, tx_power_dbm: mute}\n" + tail
    assert load_config(write_config(tmp_path, text)).victim_subject == 1
    with pytest.raises(ConfigError, match=re.escape("wbans[1].sensors[0].tx_power_dbm")):
        load_config(write_config(tmp_path, text + "sweep:\n  victims: [1, 2]\n"))


# Where each power of BASE sits in its loaded YAML tree.
_POWER_PATHS = [("noise", "noise_floor_dbm")] + [
    ("wbans", k, *node, "tx_power_dbm")
    for k in (0, 1) for node in [("hub",), ("relays", 0), ("relays", 1), ("sensors", 0)]]


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(path=st.sampled_from(_POWER_PATHS),
       value=st.one_of(st.floats(-300.0, 300.0), st.floats(-1e308, 1e308),
                       st.sampled_from([math.inf, -math.inf, math.nan, "mute"])))
def test_any_power_value_runs_or_is_named(tmp_path, path, value):
    *parents, leaf = path
    node = raw = {**yaml.safe_load(BASE), "noise": {}}
    for part in parents:
        node = node[part]
    node[leaf] = value
    name = re.sub(r"\.(\d+)", r"[\1]", ".".join(map(str, path)))
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        rc = main(["simulate", "--config", str(write_config(tmp_path, yaml.safe_dump(raw))),
                   "--out", str(tmp_path / "out"), "--quiet"])
    # A muted victim sensor fails at load; it is -inf, so never in this range.
    if value != "mute" and abs(value) <= 300.0:
        assert rc == 0, stderr.getvalue()
    assert rc in (0, 1, 2)
    if rc == 1:
        assert f"config error: {name}: " in stderr.getvalue()


@pytest.mark.parametrize("anchor,pairs", [("C", "C-RH"), ("RH", "C-RH"),
                                          ("HD", "C-HD, HD-LH, HD-RH")])
def test_an_anchor_without_distances_fails_at_load(tmp_path, anchor, pairs):
    text = BASE + f"interference: {{source_location: {anchor}}}\n"
    with pytest.raises(ConfigError, match=re.escape(f"radio.link_distances_m: no distance "
                                                    f"for the pair(s) {pairs}")):
        load_config(write_config(tmp_path, text))
    distances = "".join(f"    {pair}: 0.5\n" for pair in pairs.split(", "))
    config = load_config(write_config(tmp_path, text + f"radio:\n  link_distances_m:\n"
                                                       f"{distances}"))
    assert config.interferer_source_location is BodyLocation.parse(anchor)
    # Without an interferer in any combination, no distance is needed.
    load_config(write_config(tmp_path, text.replace("interferers: [2]\n", "")))
    with pytest.raises(ConfigError, match=re.escape("radio.link_distances_m")):
        load_config(write_config(tmp_path, text.replace("interferers: [2]\n", "")
                                 + "sweep:\n  interferers: [2]\n"))


@pytest.mark.parametrize("interference,distances,key,problem", [
    ("", "C-LH: 0.40\n    LH-C: 0.9", "LH-C", "the pair C-LH is written twice"),
    ("", "C-C: 0.1", "C-C", "interference from source_location LH reads only C-LH, LH-RH"),
    ("interference: {source_location: LH}\n", "HD-RW: 0.2", "HD-RW",
     "interference from source_location LH reads only C-LH, LH-RH"),
    # The default config's LH-RH, written with a chest anchor, which reads C-LH and C-RH.
    ("interference: {source_location: C}\n", "C-RH: 0.35\n    LH-RH: 0.30", "LH-RH",
     "interference from source_location C reads only C-LH, C-RH"),
])
def test_a_distance_written_twice_or_that_nothing_reads_fails_at_load(
        tmp_path, interference, distances, key, problem):
    text = BASE + interference + f"radio:\n  link_distances_m:\n    {distances}\n"
    message = f"radio.link_distances_m.{key}: {problem}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
        load_config(write_config(tmp_path, text))


def test_unwritten_default_distances_are_never_rejected(tmp_path):
    # A chest anchor reads C-LH and C-RH; the class default LH-RH, not written, loads.
    config = load_config(write_config(tmp_path, BASE + "interference: {source_location: C}\n"
                                      "radio:\n  link_distances_m: {C-RH: 0.35}\n"))
    assert dict(config.radio.link_distances_m) == {("C", "LH"): 0.40, ("LH", "RH"): 0.30,
                                                   ("C", "RH"): 0.35}


def test_relaying_is_not_a_section(tmp_path):
    with pytest.raises(ConfigError, match=re.escape("unknown key(s) relaying")):
        load_config(write_config(tmp_path, BASE + "relaying:\n  hop_weights: [1.0, 1.0]\n"))


def test_csv_source_resolves_relative_dir(tmp_path):
    (tmp_path / "traces").mkdir()
    text = BASE.replace("""channels:
  synthetic:
    duration_ms: 60000.0
    on_body: {mean_gain_db: -55.0, shadow_sigma_db: 6.0, coherence_time_ms: 240.0}
    inter_body: {mean_gain_db: -70.0, shadow_sigma_db: 6.0, coherence_time_ms: 500.0}
""", """channels:
  source: csv
  csv_dir: traces
""")
    config = load_config(write_config(tmp_path, text))
    assert isinstance(config.channels, CsvChannelSource)
    assert config.channels.directory == tmp_path / "traces"


def test_link_overrides_merge_over_class_params(tmp_path):
    text = BASE.replace("""    inter_body: {mean_gain_db: -70.0, shadow_sigma_db: 6.0, coherence_time_ms: 500.0}
""", """    inter_body: {mean_gain_db: -70.0, shadow_sigma_db: 6.0, coherence_time_ms: 500.0}
    overrides:
      "1:HD->1:C": {shadow_sigma_db: 2.0}
      "2:LH->1:LH": {mean_gain_db: -80.0}
""")
    source = load_config(write_config(tmp_path, text)).channels
    override = source.overrides[LinkId.parse("1:HD->1:C")]
    assert (override.mean_gain_db, override.shadow_sigma_db,
            override.coherence_time_ms) == (-55.0, 2.0, 240.0)
    cross = source.overrides[LinkId.parse("2:LH->1:LH")]
    assert (cross.mean_gain_db, cross.coherence_time_ms) == (-80.0, 500.0)
    assert source.params_for(LinkId.parse("1:HD->1:C")) == override
    assert source.params_for(LinkId.parse("1:HD->1:LH")) == source.on_body


def test_metrics_grid(tmp_path):
    text = BASE + """
metrics:
  threshold_start_db: -10.0
  threshold_stop_db: 10.0
  threshold_step_db: 1.0
  lcr_ref_threshold_db: 3.0
"""
    config = load_config(write_config(tmp_path, text))
    np.testing.assert_allclose(config.thresholds_db, np.linspace(-10.0, 10.0, 21))
    assert config.lcr_ref_threshold_db == 3.0
    bad = text.replace("threshold_step_db: 1.0", "threshold_step_db: 0.7")
    with pytest.raises(ConfigError, match="does not divide"):
        load_config(write_config(tmp_path, bad))


def test_sweep_and_start_sections(tmp_path):
    text = BASE + """
sweep:
  victims: [1, 2]
  interferers: [1, 2]
repetitions: 3
start_indices: [0, 5, 9]
"""
    config = load_config(write_config(tmp_path, text))
    assert config.sweep_victims == (1, 2)
    assert config.sweep_interferers == (1, 2)
    assert config.repetitions == 3
    assert config.start_indices == (0, 5, 9)
    with pytest.raises(ConfigError, match=re.escape(
            "start_indices lists 0 entries but repetitions is 1")):
        load_config(write_config(tmp_path, BASE + "\nstart_indices: []\n"))
    # start_indices is the one start pin; a single start_index is no key.
    with pytest.raises(ConfigError, match=re.escape("top level: unknown key(s) start_index")):
        load_config(write_config(tmp_path, BASE + "start_index: 0\n"))
    with pytest.raises(ConfigError, match="start_indices lists 2 entries but repetitions is 3"):
        load_config(write_config(tmp_path, BASE + "repetitions: 3\nstart_indices: [0, 5]\n"))
    # A negative start fails at load, by key.
    with pytest.raises(ConfigError, match=re.escape("start_indices[0] must be >= 0, got -3")):
        load_config(write_config(tmp_path, BASE + "start_indices: [-3]\n"))


@pytest.mark.parametrize("text,key", [
    (BASE.replace("interferers: [2]", "interferers: [2, 2]"), "interferers"),
    (BASE + "sweep:\n  victims: [1, 1]\n", "sweep.victims"),
    (BASE + "sweep:\n  interferers: [1, 2, 2]\n", "sweep.interferers"),
])
def test_duplicate_subjects_are_named(tmp_path, text, key):
    with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: duplicate subject ids"):
        load_config(write_config(tmp_path, text))


def test_victim_must_have_a_wban(tmp_path):
    with pytest.raises(ConfigError, match="no wban defined for subject 9"):
        load_config(write_config(tmp_path, BASE.replace("victim: 1", "victim: 9")))
    with pytest.raises(ConfigError, match="cannot interfere"):
        load_config(write_config(tmp_path, BASE.replace("interferers: [2]",
                                                        "interferers: [1]")))


def test_coherence_swap_touches_on_body_only(tmp_path):
    text = BASE.replace("""    inter_body: {mean_gain_db: -70.0, shadow_sigma_db: 6.0, coherence_time_ms: 500.0}
""", """    inter_body: {mean_gain_db: -70.0, shadow_sigma_db: 6.0, coherence_time_ms: 500.0}
    overrides:
      "1:HD->1:C": {shadow_sigma_db: 2.0}
      "2:LH->1:LH": {mean_gain_db: -80.0}
""")
    config = load_config(write_config(tmp_path, text))
    swapped = with_on_body_coherence(config, 5000.0)
    assert swapped.channels.on_body.coherence_time_ms == 5000.0
    assert swapped.channels.inter_body.coherence_time_ms == 500.0
    intra, cross = LinkId.parse("1:HD->1:C"), LinkId.parse("2:LH->1:LH")
    assert swapped.channels.overrides[intra].coherence_time_ms == 5000.0
    assert swapped.channels.overrides[intra].shadow_sigma_db == 2.0
    assert swapped.channels.overrides[cross].coherence_time_ms == 500.0
    # The original is untouched.
    assert config.channels.on_body.coherence_time_ms == 240.0


def _mapping_paths(node, path=""):
    """(dotted path, mapping) for every mapping nested in a loaded YAML tree."""
    if isinstance(node, dict):
        yield path, node
        items = ((f"{path}.{k}" if path else str(k), v) for k, v in node.items())
    elif isinstance(node, list):
        items = ((f"{path}[{k}]", v) for k, v in enumerate(node))
    else:
        return
    for child_path, child in items:
        yield from _mapping_paths(child, child_path)


def _default_with_override():
    raw = yaml.safe_load(DEFAULT_CONFIG.read_text())
    raw["channels"]["synthetic"]["overrides"] = {"1:HD->1:C": {"shadow_sigma_db": 2.0}}
    return raw


@pytest.mark.parametrize("path", [pytest.param(p, id=p or "top-level")
                                  for p, _ in _mapping_paths(_default_with_override())])
def test_unknown_keys_are_named_by_path(tmp_path, path):
    raw = _default_with_override()
    dict(_mapping_paths(raw))[path]["bogus"] = 1.0
    config_path = write_config(tmp_path, yaml.safe_dump(raw))
    bogus = f"{path}.bogus" if path else "bogus"
    with pytest.raises(ConfigError, match=re.escape(bogus)):
        load_config(config_path)


def test_source_sections_must_match_the_source(tmp_path):
    csv = BASE.replace("channels:\n", "channels:\n  source: csv\n  csv_dir: traces\n")
    with pytest.raises(ConfigError, match=re.escape("channels.synthetic")):
        load_config(write_config(tmp_path, csv))
    synthetic = BASE.replace("channels:\n", "channels:\n  csv_dir: traces\n")
    with pytest.raises(ConfigError, match=re.escape("channels.csv_dir")):
        load_config(write_config(tmp_path, synthetic))
    not_a_path = "channels:\n  source: csv\n  csv_dir: 5\n"
    with pytest.raises(ConfigError, match=re.escape("channels.csv_dir: expected a path")):
        load_config(write_config(tmp_path, BASE.split("channels:\n")[0] + not_a_path))


def test_interferers_are_optional(tmp_path):
    config = load_config(write_config(tmp_path, BASE.replace("interferers: [2]\n", "")))
    assert config.interferer_subjects == ()


@pytest.mark.parametrize("start,stop,step,problem", [
    ("0.0", "10.0", "3.0", "step 3.0 does not divide"),
    # A step below the spacing of floats there: linspace repeats points.
    ("1e16", "1.0000000000000008e16", "0.5", "the threshold grid must be a non-empty 1-D "
                                             "array of finite, strictly increasing values"),
])
def test_grid_errors_name_the_grid_keys(tmp_path, capsys, start, stop, step, problem):
    bad = write_config(tmp_path, BASE + f"metrics: {{threshold_start_db: {start}, "
                       f"threshold_stop_db: {stop}, threshold_step_db: {step}}}\n")
    message = f"metrics.threshold_{{start,stop,step}}_db: {problem}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(bad)
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "out")]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("value", ["240.0", "0.0", ".nan", ".inf"])
def test_epoch_period_must_equal_the_cycle(tmp_path, value):
    with pytest.raises(ConfigError, match="epoch_period_ms .* must equal the TDMA cycle"):
        load_config(write_config(tmp_path, BASE + f"epoch_period_ms: {value}\n"))


@pytest.mark.parametrize("edits,epoch,period,ratio", [
    ([("sample_period_ms: 120.0", "sample_period_ms: 50.0")], 120.0, 50.0, 2.4),
    ([("n_coexisting: 2", "n_coexisting: 3"),
      ("epoch_period_ms: 120.0", "epoch_period_ms: 180.0")], 180.0, 120.0, 1.5),
], ids=["sample_period_ms 50", "n_coexisting 3"])
def test_a_synthetic_period_that_does_not_divide_the_epoch_fails_at_load(
        tmp_path, capsys, edits, epoch, period, ratio):
    # Assembly would fail to decimate the first trace, naming a link, not a key.
    text = DEFAULT_CONFIG.read_text()
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    bad = write_config(tmp_path, text)
    message = (f"channels.synthetic.sample_period_ms: the epoch period {epoch} ms (the TDMA "
               "cycle mac.n_coexisting * mac.slot_len_ms) must be a whole multiple of "
               f"{period} ms, got the ratio {ratio}")
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(bad)
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "out")]) == 1
    assert message in capsys.readouterr().err


def _key_paths(mapping, prefix=""):
    paths = set()
    for key, value in mapping.items():
        paths.add(f"{prefix}{key}")
        if isinstance(value, dict):
            paths |= _key_paths(value, f"{prefix}{key}.")
    return paths


def test_readme_config_blocks_load(tmp_path):
    blocks = re.findall(r"^```yaml\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    default = load_config(DEFAULT_CONFIG)
    default_keys = _key_paths(yaml.safe_load(DEFAULT_CONFIG.read_text()))
    for k, block in enumerate(blocks):
        # The loader rejects unknown keys, but a key that is valid yet absent
        # from the default would still load: check key names and values too.
        assert _key_paths(yaml.safe_load(block)) <= default_keys
        config = load_config(write_config(tmp_path, block, f"readme{k}.yaml"))
        assert config.noise == default.noise
        assert dict(config.radio.link_distances_m) == dict(default.radio.link_distances_m)
        np.testing.assert_array_equal(config.thresholds_db, default.thresholds_db)
        assert config.lcr_ref_threshold_db == default.lcr_ref_threshold_db
        assert config.channels.on_body == default.channels.on_body
        assert config.channels.inter_body == default.channels.inter_body


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
def test_libyaml_and_python_loaders_agree_on_the_shipped_configs():
    # load_config parses with libyaml where it is available.
    blocks = re.findall(r"^```yaml\n(.*?)^```", README.read_text(), re.M | re.S)
    for text in [DEFAULT_CONFIG.read_text(), *blocks]:
        assert (yaml.load(text, Loader=yaml.CSafeLoader)
                == yaml.load(text, Loader=yaml.SafeLoader))


_LOADERS = [pytest.param(yaml.SafeLoader, id="python"),
            pytest.param(getattr(yaml, "CSafeLoader", None), id="libyaml",
                         marks=pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"),
                                                  reason="PyYAML built without libyaml"))]


def _unique_keys(monkeypatch, loader):
    """Make load_config parse with ``loader`` under the repeated-key check."""
    monkeypatch.setattr(config_module, "_YAML_LOADER",
                        type("Loader", (config_module._UniqueKeys, loader), {}))


@pytest.mark.parametrize("loader", _LOADERS)
@pytest.mark.parametrize("text,key,repeat", [
    # Top level: the last value would run, silently.
    (BASE + "epochs: 60\n", "epochs", "epochs: 60"),
    # Nested in a block mapping and in a flow mapping.
    (BASE.replace("  slot_len_ms: 60.0\n", "  slot_len_ms: 60.0\n  n_coexisting: 3\n"),
     "n_coexisting", "  n_coexisting: 3"),
    (BASE.replace("on_body: {mean_gain_db: -55.0,",
                  "on_body: {mean_gain_db: -55.0, mean_gain_db: -50.0,"),
     "mean_gain_db", "    on_body: {mean_gain_db: -55.0, mean_gain_db: -50.0,"),
], ids=["top-level", "nested-block", "nested-flow"])
def test_a_repeated_key_fails_at_load_naming_the_key_and_its_line(tmp_path, monkeypatch,
                                                                  loader, text, key, repeat):
    _unique_keys(monkeypatch, loader)
    line = next(n for n, row in enumerate(text.splitlines(), start=1) if row.startswith(repeat))
    with pytest.raises(ConfigError, match=rf"invalid YAML: duplicate key '{key}' on line "
                                          rf"{line}$"):
        load_config(write_config(tmp_path, text))


@pytest.mark.parametrize("loader", _LOADERS)
def test_a_key_that_overrides_a_merge_is_no_repeat(tmp_path, monkeypatch, loader):
    _unique_keys(monkeypatch, loader)
    text = BASE.replace("mac:\n  n_coexisting: 2\n  slot_len_ms: 60.0\n",
                        "timing: &timing {n_coexisting: 4, slot_len_ms: 60.0}\n"
                        "mac:\n  <<: *timing\n  n_coexisting: 2\n")
    # The mapping's own key wins; the anchor's unread section is refused by name.
    with pytest.raises(ConfigError, match="^top level: unknown key\\(s\\) timing$"):
        load_config(write_config(tmp_path, text))
    parsed = yaml.load(text, Loader=config_module._YAML_LOADER)
    assert parsed["mac"] == {"n_coexisting": 2, "slot_len_ms": 60.0}


def test_the_cli_exits_1_on_a_repeated_key(tmp_path, capsys):
    path = write_config(tmp_path, BASE + "epochs: 60\n")
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    line = len(BASE.splitlines()) + 1
    assert capsys.readouterr().err == (f"config error: {path}: invalid YAML: duplicate key "
                                       f"'epochs' on line {line}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("loader", _LOADERS)
def test_a_yaml_syntax_error_names_the_config_file(tmp_path, monkeypatch, loader):
    _unique_keys(monkeypatch, loader)
    path = write_config(tmp_path, "epochs: [1, 2\n")
    with pytest.raises(ConfigError) as raised:
        load_config(path)
    message = str(raised.value)
    assert message.startswith(f"{path}: invalid YAML: ")
    assert f'in "{path}", line 1, column 9' in message
    assert "<unicode string>" not in message


def test_the_cli_exits_1_naming_a_config_it_cannot_parse_or_read(tmp_path, capsys):
    path = write_config(tmp_path, "epochs: [1, 2\n")
    for config in (path, tmp_path / "absent.yaml", tmp_path):
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        assert str(config) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()

"""YAML experiment configuration: loading, validation, defaults.

The file is a nested mapping with one section per concern (mac, noise,
radio, channels, metrics, relaying) plus the network definitions and the
sweep matrix. Validation errors name the offending section and key.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np
import yaml

from .channel import BodyLocation, SyntheticChannelParams
from .engine import (ConfigError, CsvChannelSource, ExperimentConfig, RadioConfig,
                     SyntheticChannelSource)
from .network import MacConfig, NodeSpec, Role, WbanConfig
from .relaying import NoiseModel


def _require(mapping: dict, key: str, section: str):
    if key not in mapping:
        raise ConfigError(f"{section}: missing key '{key}'")
    return mapping[key]


def _as_mapping(value, section: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{section}: expected a mapping, got {type(value).__name__}")
    return value


def _as_float(value, key: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key}: expected a number, got {value!r}") from None


def _as_int(value, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key}: expected an integer, got {value!r}")
    return value


def _parse_location(value, key: str) -> BodyLocation:
    try:
        return BodyLocation.parse(value)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _parse_node(raw, role: Role, section: str) -> NodeSpec:
    raw = _as_mapping(raw, section)
    location = _parse_location(_require(raw, "location", section), f"{section}.location")
    power = raw.get("tx_power_dbm", 0.0)
    power = float("-inf") if power in ("-inf", "mute") else _as_float(power, f"{section}.tx_power_dbm")
    try:
        return NodeSpec(role, location, power)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from None


def _parse_wban(raw, index: int) -> WbanConfig:
    section = f"wbans[{index}]"
    raw = _as_mapping(raw, section)
    subject = _as_int(_require(raw, "subject", section), f"{section}.subject")
    hub = _parse_node(_require(raw, "hub", section), Role.HUB, f"{section}.hub")
    relays_raw = _require(raw, "relays", section)
    if not isinstance(relays_raw, list) or len(relays_raw) != 2:
        raise ConfigError(f"{section}.relays: expected a list of exactly 2 nodes")
    relays = tuple(_parse_node(r, Role.RELAY, f"{section}.relays[{k}]")
                   for k, r in enumerate(relays_raw))
    sensors_raw = _require(raw, "sensors", section)
    if not isinstance(sensors_raw, list) or not sensors_raw:
        raise ConfigError(f"{section}.sensors: expected a nonempty list of nodes")
    sensors = tuple(_parse_node(s, Role.SENSOR, f"{section}.sensors[{k}]")
                    for k, s in enumerate(sensors_raw))
    try:
        return WbanConfig(subject, hub, relays, sensors)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from None


def _parse_shadow(raw, section: str, base: SyntheticChannelParams | None = None,
                  ) -> SyntheticChannelParams:
    raw = _as_mapping(raw, section)
    try:
        if base is None:
            return SyntheticChannelParams(
                _as_float(_require(raw, "mean_gain_db", section), f"{section}.mean_gain_db"),
                _as_float(_require(raw, "shadow_sigma_db", section), f"{section}.shadow_sigma_db"),
                _as_float(_require(raw, "coherence_time_ms", section), f"{section}.coherence_time_ms"))
        merged = {"mean_gain_db": base.mean_gain_db,
                  "shadow_sigma_db": base.shadow_sigma_db,
                  "coherence_time_ms": base.coherence_time_ms}
        for key in merged:
            if key in raw:
                merged[key] = _as_float(raw[key], f"{section}.{key}")
        return SyntheticChannelParams(**merged)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from None


def _parse_channels(raw, config_dir: Path):
    section = "channels"
    raw = _as_mapping(raw, section)
    source = raw.get("source", "synthetic")
    if source == "csv":
        csv_dir = Path(_require(raw, "csv_dir", section))
        if not csv_dir.is_absolute():
            csv_dir = config_dir / csv_dir
        return CsvChannelSource(csv_dir)
    if source != "synthetic":
        raise ConfigError(f"channels.source: expected 'synthetic' or 'csv', got {source!r}")
    syn = _as_mapping(raw.get("synthetic"), "channels.synthetic")
    on_body = _parse_shadow(_require(syn, "on_body", "channels.synthetic"),
                            "channels.synthetic.on_body")
    inter_body = _parse_shadow(_require(syn, "inter_body", "channels.synthetic"),
                               "channels.synthetic.inter_body")
    sample_period = _as_float(syn.get("sample_period_ms", 120.0),
                              "channels.synthetic.sample_period_ms")
    duration = _as_float(_require(syn, "duration_ms", "channels.synthetic"),
                         "channels.synthetic.duration_ms")
    overrides = {}
    for link_text, partial in _as_mapping(syn.get("overrides"),
                                          "channels.synthetic.overrides").items():
        try:
            from .channel import LinkId
            link = LinkId.parse(str(link_text))
        except ValueError as exc:
            raise ConfigError(f"channels.synthetic.overrides: {exc}") from None
        base = on_body if link.is_intra else inter_body
        overrides[str(link)] = _parse_shadow(
            partial, f"channels.synthetic.overrides.{link_text}", base)
    try:
        return SyntheticChannelSource(sample_period, duration, on_body, inter_body, overrides)
    except ValueError as exc:
        raise ConfigError(f"channels.synthetic: {exc}") from None


def _parse_thresholds(raw) -> np.ndarray:
    section = "metrics"
    raw = _as_mapping(raw, section)
    start = _as_float(raw.get("threshold_start_db", -30.0), f"{section}.threshold_start_db")
    stop = _as_float(raw.get("threshold_stop_db", 50.0), f"{section}.threshold_stop_db")
    step = _as_float(raw.get("threshold_step_db", 0.5), f"{section}.threshold_step_db")
    if step <= 0 or stop <= start:
        raise ConfigError(f"{section}: need threshold_start_db < threshold_stop_db "
                          "and a positive threshold_step_db")
    count = round((stop - start) / step)
    if abs(start + count * step - stop) > 1e-9:
        raise ConfigError(f"{section}: threshold_step_db {step} does not divide the "
                          f"span [{start}, {stop}]")
    return np.linspace(start, stop, count + 1)


def load_config(path, seed_override: int | None = None) -> ExperimentConfig:
    """Load and validate an experiment configuration file."""
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    raw = _as_mapping(raw, str(path))

    wbans_raw = _require(raw, "wbans", "top level")
    if not isinstance(wbans_raw, list) or not wbans_raw:
        raise ConfigError("wbans: expected a nonempty list of network definitions")
    wbans = tuple(_parse_wban(w, i) for i, w in enumerate(wbans_raw))

    mac_raw = _as_mapping(raw.get("mac"), "mac")
    try:
        mac = MacConfig(
            _as_int(_require(mac_raw, "n_coexisting", "mac"), "mac.n_coexisting"),
            _as_float(_require(mac_raw, "slot_len_ms", "mac"), "mac.slot_len_ms"),
            _as_float(mac_raw.get("beacon_frac", 0.1), "mac.beacon_frac"))
    except ValueError as exc:
        raise ConfigError(f"mac: {exc}") from None

    noise_raw = _as_mapping(raw.get("noise"), "noise")
    try:
        noise = NoiseModel(_as_float(noise_raw.get("noise_floor_dbm", -100.0),
                                     "noise.noise_floor_dbm"))
    except ValueError as exc:
        raise ConfigError(f"noise: {exc}") from None

    radio_raw = _as_mapping(raw.get("radio"), "radio")
    distances = dict(RadioConfig().link_distances_m)
    for pair_text, metres in _as_mapping(radio_raw.get("link_distances_m"),
                                         "radio.link_distances_m").items():
        parts = str(pair_text).split("-")
        if len(parts) != 2:
            raise ConfigError(f"radio.link_distances_m: expected keys like 'LH-RH', "
                              f"got {pair_text!r}")
        a = _parse_location(parts[0], "radio.link_distances_m")
        b = _parse_location(parts[1], "radio.link_distances_m")
        distances[tuple(sorted((a.value, b.value)))] = _as_float(
            metres, f"radio.link_distances_m.{pair_text}")
    radio = RadioConfig(_as_float(radio_raw.get("frequency_hz", 2.36e9),
                                  "radio.frequency_hz"), distances)

    relaying_raw = _as_mapping(raw.get("relaying"), "relaying")
    weights_raw = relaying_raw.get("hop_weights", [1.0, 1.0])
    if not isinstance(weights_raw, list) or len(weights_raw) != 2:
        raise ConfigError("relaying.hop_weights: expected a list of two numbers")
    hop_weights = tuple(_as_float(w, "relaying.hop_weights") for w in weights_raw)

    interference_raw = _as_mapping(raw.get("interference"), "interference")
    source_location = _parse_location(interference_raw.get("source_location", "LH"),
                                      "interference.source_location")

    sweep_raw = _as_mapping(raw.get("sweep"), "sweep")
    sweep_victims = tuple(_as_int(v, "sweep.victims") for v in sweep_raw.get("victims", []))
    sweep_interferers = tuple(_as_int(v, "sweep.interferers")
                              for v in sweep_raw.get("interferers", []))

    interferers_raw = raw.get("interferers", [])
    if not isinstance(interferers_raw, list):
        raise ConfigError("interferers: expected a list of subject ids")

    start_index = raw.get("start_index")
    if start_index is not None:
        start_index = _as_int(start_index, "start_index")
    start_indices = raw.get("start_indices")
    if start_indices is not None:
        if not isinstance(start_indices, list) or not start_indices:
            raise ConfigError("start_indices: expected a nonempty list of integers")
        start_indices = tuple(_as_int(s, "start_indices") for s in start_indices)

    seed = _as_int(raw.get("seed", 0), "seed")
    if seed_override is not None:
        seed = seed_override

    metrics_raw = _as_mapping(raw.get("metrics"), "metrics")
    config = ExperimentConfig(
        wbans=wbans,
        victim_subject=_as_int(_require(raw, "victim", "top level"), "victim"),
        interferer_subjects=tuple(_as_int(s, "interferers") for s in interferers_raw),
        epochs=_as_int(_require(raw, "epochs", "top level"), "epochs"),
        mac=mac,
        noise=noise,
        radio=radio,
        channels=_parse_channels(_require(raw, "channels", "top level"), path.parent),
        master_seed=seed,
        repetitions=_as_int(raw.get("repetitions", 1), "repetitions"),
        start_index=start_index,
        start_indices=start_indices,
        epoch_period_ms=_as_float(raw.get("epoch_period_ms", 120.0), "epoch_period_ms"),
        interferer_source_location=source_location,
        hop_weights=hop_weights,
        thresholds_db=_parse_thresholds(metrics_raw),
        lcr_ref_threshold_db=_as_float(metrics_raw.get("lcr_ref_threshold_db", 5.0),
                                       "metrics.lcr_ref_threshold_db"),
        sweep_victims=sweep_victims,
        sweep_interferers=sweep_interferers)
    return config


def with_on_body_coherence(config: ExperimentConfig, coherence_time_ms: float,
                           ) -> ExperimentConfig:
    """Copy of a config with the on-body coherence time replaced.

    Only meaningful for a synthetic channel source; per-link overrides of
    on-body links are adjusted as well.
    """
    source = config.channels
    if not isinstance(source, SyntheticChannelSource):
        raise ConfigError("channels: coherence variation needs a synthetic source")
    from .channel import LinkId
    overrides = {
        text: (replace(params, coherence_time_ms=coherence_time_ms)
               if LinkId.parse(text).is_intra else params)
        for text, params in source.overrides.items()}
    new_source = replace(source,
                         on_body=replace(source.on_body,
                                         coherence_time_ms=coherence_time_ms),
                         overrides=overrides)
    return replace(config, channels=new_source)

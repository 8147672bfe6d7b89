"""YAML experiment configuration: loading and validation.

The file is a nested mapping with one section per concern (mac, noise,
radio, channels, metrics, interference, sweep) plus the network
definitions and the run settings. Each section is read by one
``_Section``: a key that is absent takes the default of the class it
configures, a key that nothing reads is an error, and every error names
the offending key by its full dotted path. The loader checks only what is
about the text: keys, YAML types and shapes, and spellings. Each rule on a
value lives in the record the value builds.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from pathlib import Path

import yaml

from .channel import BodyLocation, FieldError, LinkId, SyntheticChannelParams
from .engine import (ConfigError, CsvChannelSource, ExperimentConfig, RadioConfig,
                     SyntheticChannelSource, _anchor_pairs, _distance_key)
from .metrics import threshold_grid
from .network import MacConfig, NodeSpec, WbanConfig
from .relaying import NoiseModel


class _UniqueKeys:
    """A loader mixin that refuses a key its mapping repeats, naming the key and its
    line. A key that overrides one merged in by ``<<`` is no repeat."""

    def construct_mapping(self, node, deep=False):
        own = [key_node for key_node, _ in node.value
               if key_node.tag != "tag:yaml.org,2002:merge"]
        # The base loader resolves the merges and builds every key; the loop reads
        # those keys back from its cache.
        mapping = super().construct_mapping(node, deep=deep)
        seen = set()
        for key_node in own:
            key = self.construct_object(key_node, deep=deep)
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    None, None, f"duplicate key {key!r} on line {key_node.start_mark.line + 1}")
            seen.add(key)
        return mapping


# libyaml's parser where PyYAML was built with it: the same safe subset of
# YAML, parsed several times faster than by the pure-Python reader.
_YAML_LOADER = type("Loader", (_UniqueKeys, getattr(yaml, "CSafeLoader", yaml.SafeLoader)), {})

# What ``_Section.get`` returns for an absent key; ``build`` drops it, so
# the target class's own default applies.
_ABSENT = object()


def _as_mapping(value, section: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{section}: expected a mapping, got {type(value).__name__}")
    return value


def _as_float(value, key: str) -> float:
    try:
        # YAML reads on, off, yes and no as booleans, which float() takes as 1 and 0.
        if isinstance(value, bool):
            raise TypeError
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key}: expected a number, got {value!r}") from None


def _as_int(value, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key}: expected an integer, got {value!r}")
    return value


def _as_power(value, key: str) -> float:
    return float("-inf") if value in ("-inf", "mute") else _as_float(value, key)


def _as_ints(value, key: str, nonempty: bool = False) -> tuple[int, ...]:
    if not isinstance(value, list) or (nonempty and not value):
        raise ConfigError(f"{key}: expected a {'nonempty ' if nonempty else ''}list of "
                          f"integers, got {value!r}")
    return tuple(_as_int(v, key) for v in value)


def _as_start_indices(value, key: str) -> tuple[int, ...] | None:
    return None if value is None else _as_ints(value, key)


def _parse_location(value, key: str) -> BodyLocation:
    try:
        return BodyLocation.parse(value)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _parse_link(value, key: str) -> LinkId:
    try:
        return LinkId.parse(str(value))
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _parse_distances(value, key: str, anchor: BodyLocation) -> dict[tuple[str, str], float]:
    """Pair distances like ``{C-LH: 0.4}`` merged over the class defaults; each pair
    is written once and is one that interference from ``anchor`` reads."""
    read, written = _anchor_pairs(anchor), {}
    for pair_text, metres in _as_mapping(value, key).items():
        name = f"{key}.{pair_text}"
        parts = str(pair_text).split("-")
        if len(parts) != 2:
            raise ConfigError(f"{name}: expected keys like 'LH-RH'")
        pair = _distance_key(*(_parse_location(part, name) for part in parts))
        if pair in written:
            raise ConfigError(f"{name}: the pair {'-'.join(pair)} is written twice")
        if pair not in read:
            raise ConfigError(f"{name}: interference from source_location {anchor} reads "
                              f"only {', '.join(map('-'.join, read))}")
        written[pair] = _as_float(metres, name)
    return {**RadioConfig().link_distances_m, **written}


class _Section:
    """One mapping of the config file and its dotted path, read key by key.

    Every key asked for is recorded, so ``build`` can reject the keys that
    nothing read: a misspelt or misplaced key never loads silently.
    """

    def __init__(self, raw, path: str):
        self.path, self.label = path, path or "top level"
        self.raw = _as_mapping(raw, self.label)
        self.read: set = set()
        self.children: list[_Section] = []

    def name(self, key) -> str:
        return f"{self.path}.{key}" if self.path else str(key)

    def get(self, key: str, parse=None, required: bool = False):
        """The parsed value of ``key``, or ``_ABSENT`` if an optional key is absent."""
        self.read.add(key)
        if key not in self.raw:
            if required:
                raise ConfigError(f"{self.label}: missing key '{key}'")
            return _ABSENT
        value = self.raw[key]
        return value if parse is None else parse(value, self.name(key))

    def section(self, key: str, required: bool = False) -> _Section:
        value = self.get(key, required=required)
        return self._child(None if value is _ABSENT else value, self.name(key))

    def sections(self, key: str, what: str) -> list[_Section]:
        """The mappings in the nonempty list under ``key``, a list of ``what``."""
        items = self.get(key, required=True)
        if not (isinstance(items, list) and items):
            raise ConfigError(f"{self.name(key)}: expected a nonempty list of {what}")
        return [self._child(item, f"{self.name(key)}[{k}]") for k, item in enumerate(items)]

    def _child(self, raw, path: str) -> _Section:
        child = _Section(raw, path)
        self.children.append(child)
        return child

    def check(self) -> None:
        """Reject the unread keys of this section and of every section read from it."""
        unknown = [self.name(key) for key in self.raw if key not in self.read]
        if unknown:
            raise ConfigError(f"{self.label}: unknown key(s) {', '.join(unknown)}")
        for child in self.children:
            child.check()

    def build(self, target, *args, **kwargs):
        """Call ``target`` with the present values once every key has been read.

        A ``ValueError`` from ``target`` becomes a ``ConfigError`` naming
        this section, or the key of this section that a ``FieldError`` names.
        """
        self.check()
        try:
            return target(*args, **{k: v for k, v in kwargs.items() if v is not _ABSENT})
        except FieldError as exc:
            raise ConfigError(f"{self.name(exc.field)}: {exc.problem}") from None
        except ValueError as exc:
            raise ConfigError(f"{self.label}: {exc}") from None


def _node(section: _Section) -> NodeSpec:
    return section.build(NodeSpec,
                         section.get("location", _parse_location, required=True),
                         tx_power_dbm=section.get("tx_power_dbm", _as_power))


def _wban(section: _Section) -> WbanConfig:
    return section.build(
        WbanConfig,
        section.get("subject", _as_int, required=True),
        _node(section.section("hub", required=True)),
        tuple(_node(relay) for relay in section.sections("relays", "nodes")),
        tuple(_node(sensor) for sensor in section.sections("sensors", "nodes")))


def _shadow(section: _Section, base: SyntheticChannelParams | None = None,
            ) -> SyntheticChannelParams:
    """Class parameters (every key required), or a partial override of ``base``."""
    values = {key: section.get(key, _as_float, required=base is None)
              for key in ("mean_gain_db", "shadow_sigma_db", "coherence_time_ms")}
    if base is None:
        return section.build(SyntheticChannelParams, **values)
    return section.build(replace, base, **values)


def _channels(section: _Section, config_dir: Path):
    source = section.get("source")
    if source == "csv":
        csv_dir = section.get("csv_dir", required=True)
        if not isinstance(csv_dir, str):
            raise ConfigError(f"channels.csv_dir: expected a path, got {csv_dir!r}")
        # A relative csv_dir is relative to the config file.
        return section.build(CsvChannelSource, config_dir / csv_dir)
    if source not in (_ABSENT, "synthetic"):
        raise ConfigError(f"channels.source: expected 'synthetic' or 'csv', got {source!r}")
    synthetic = section.section("synthetic")
    on_body = _shadow(synthetic.section("on_body", required=True))
    inter_body = _shadow(synthetic.section("inter_body", required=True))
    overrides = synthetic.section("overrides")
    by_link, keys = {}, {}
    for link_text in overrides.raw:
        link = _parse_link(link_text, overrides.name(link_text))
        if keys.setdefault(link, link_text) != link_text:
            raise ConfigError(f"{overrides.name(link_text)}: the link {link} is overridden "
                              f"twice, also by {overrides.name(keys[link])}")
        by_link[link] = _shadow(overrides.section(link_text),
                                on_body if link.is_intra else inter_body)
    return synthetic.build(
        SyntheticChannelSource,
        sample_period_ms=synthetic.get("sample_period_ms", _as_float),
        duration_ms=synthetic.get("duration_ms", _as_float, required=True),
        on_body=on_body, inter_body=inter_body, overrides=by_link)


def _thresholds(metrics: _Section):
    """The threshold grid; an error names the three keys that set it."""
    values = {arg: metrics.get(f"threshold_{arg}_db", _as_float)
              for arg in ("start", "stop", "step")}
    try:
        return threshold_grid(**{k: v for k, v in values.items() if v is not _ABSENT})
    except ValueError as exc:
        raise ConfigError(f"{metrics.name('threshold_{start,stop,step}_db')}: {exc}") from None


def load_config(path, seed_override: int | None = None) -> ExperimentConfig:
    """Load and validate an experiment configuration file."""
    path = Path(path)
    try:
        # From the open file, so that a syntax error's mark names it.
        with path.open() as stream:
            raw = yaml.load(stream, Loader=_YAML_LOADER)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    top = _Section(_as_mapping(raw, str(path)), "")

    wbans = tuple(_wban(w) for w in top.sections("wbans", "network definitions"))
    section = top.section("mac")
    mac = section.build(MacConfig,
                        section.get("n_coexisting", _as_int, required=True),
                        section.get("slot_len_ms", _as_float, required=True),
                        beacon_frac=section.get("beacon_frac", _as_float))
    # A restatement of the TDMA cycle, which is what sets the epoch.
    period = top.get("epoch_period_ms", _as_float)
    if period is not _ABSENT and not abs(period - mac.cycle_ms) <= 1e-9:  # NaN too
        raise ConfigError(f"epoch_period_ms {period} must equal the TDMA cycle "
                          f"mac.n_coexisting * mac.slot_len_ms = {mac.cycle_ms}")
    noise, radio = top.section("noise"), top.section("radio")
    interference, sweep = top.section("interference"), top.section("sweep")
    metrics = top.section("metrics")
    anchor = interference.get("source_location", _parse_location)
    anchor = ExperimentConfig.interferer_source_location if anchor is _ABSENT else anchor
    channels = _channels(top.section("channels", required=True), path.parent)
    seed = top.get("seed", _as_int)
    return top.build(
        ExperimentConfig,
        wbans=wbans,
        victim_subject=top.get("victim", _as_int, required=True),
        interferer_subjects=top.get("interferers", _as_ints),
        epochs=top.get("epochs", _as_int, required=True),
        mac=mac,
        noise=noise.build(NoiseModel,
                          noise_floor_dbm=noise.get("noise_floor_dbm", _as_float)),
        radio=radio.build(RadioConfig,
                          frequency_hz=radio.get("frequency_hz", _as_float),
                          link_distances_m=radio.get("link_distances_m",
                                                     partial(_parse_distances, anchor=anchor))),
        channels=channels,
        master_seed=seed if seed_override is None else seed_override,
        repetitions=top.get("repetitions", _as_int),
        start_indices=top.get("start_indices", _as_start_indices),
        thresholds_db=_thresholds(metrics),
        lcr_ref_threshold_db=metrics.get("lcr_ref_threshold_db", _as_float),
        interferer_source_location=anchor,
        # The record reads () as a sweep key left out, so an empty list would sweep
        # the default.
        sweep_victims=sweep.get("victims", partial(_as_ints, nonempty=True)),
        sweep_interferers=sweep.get("interferers", partial(_as_ints, nonempty=True)))

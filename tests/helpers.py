"""Builders shared across the test modules."""

import re
from dataclasses import replace
from pathlib import Path

import numpy as np

from wbansim.channel import BodyLocation, ChannelSet, ChannelTrace, LinkId
from wbansim.engine import ConfigError, ExperimentConfig, SyntheticChannelSource
from wbansim.metrics import MetricsCurve, MetricsError
from wbansim.network import NodeSpec, WbanConfig

C = BodyLocation.CHEST
LH = BodyLocation.LEFT_HIP
RH = BodyLocation.RIGHT_HIP
HD = BodyLocation.HEAD
LW = BodyLocation.LEFT_WRIST


def make_wban(subject=1, sensor_locs=(HD,), sensor_power=0.0, relay_power=0.0,
              hub_power=0.0):
    """Star network with hub at the chest and relays on the hips."""
    return WbanConfig(
        subject,
        NodeSpec(C, hub_power),
        (NodeSpec(LH, relay_power), NodeSpec(RH, relay_power)),
        tuple(NodeSpec(loc, sensor_power) for loc in sensor_locs))


def constant_set(gains, n=4, period_ms=120.0):
    """Channel set of flat traces; gains maps link strings to dB values."""
    return ChannelSet(ChannelTrace(LinkId.parse(text), period_ms, np.full(n, gain))
                      for text, gain in gains.items())


def with_on_body_coherence(config: ExperimentConfig, coherence_time_ms: float,
                           ) -> ExperimentConfig:
    """Copy of a config with the on-body coherence time replaced.

    Only meaningful for a synthetic channel source; per-link overrides of
    on-body links are adjusted as well.
    """
    source = config.channels
    if not isinstance(source, SyntheticChannelSource):
        raise ConfigError("channels: coherence variation needs a synthetic source")
    overrides = {
        text: (replace(params, coherence_time_ms=coherence_time_ms)
               if LinkId.parse(text).is_intra else params)
        for text, params in source.overrides.items()}
    new_source = replace(source,
                         on_body=replace(source.on_body,
                                         coherence_time_ms=coherence_time_ms),
                         overrides=overrides)
    return replace(config, channels=new_source)


_CURVE_HEADER_RE = re.compile(
    r"^kind,(?P<kind>outage|lcr),scheme,(?P<scheme>[^,]+),subject,(?P<subject>[^,]+)$")


def read_curve_csv(path) -> tuple[MetricsCurve, str, str]:
    """Read a curve CSV written by ``write_curve_csv`` back into (curve, scheme, subject)."""
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines:
        raise MetricsError(f"{path}:1: empty file, expected a curve header")
    header = _CURVE_HEADER_RE.match(lines[0].strip())
    if header is None:
        raise MetricsError(f"{path}:1: malformed curve header {lines[0]!r}")
    rows = []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        try:
            threshold, value = map(float, raw.split(","))
        except ValueError as exc:
            raise MetricsError(f"{path}:{lineno}: expected '<threshold_db>,<value>', "
                               f"got {raw!r}") from exc
        rows.append((threshold, value))
    if not rows:
        raise MetricsError(f"{path}:2: no data rows")
    thresholds, values = np.array(rows).T
    return (MetricsCurve(header.group("kind"), thresholds, values),
            header.group("scheme"), header.group("subject"))

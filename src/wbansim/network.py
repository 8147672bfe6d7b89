"""Star-topology network configuration and non-coordinated TDMA timing.

Each body area network is a hub, two relays and up to three sensors in a
star. Several such networks share one channel by slotted time division,
but without any cross-network coordination: every superframe each network
places its active period at an offset drawn uniformly over the whole
cycle, so transmissions of different networks collide at random and only
partially. Collisions are quantified by circular interval overlap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import BodyLocation, FieldError, _linear

COORDINATOR_LOCATIONS = frozenset(
    {BodyLocation.CHEST, BodyLocation.LEFT_HIP, BodyLocation.RIGHT_HIP})


@dataclass(frozen=True)
class NodeSpec:
    """One body-worn device: placement and transmit power.

    Its role is the slot of ``WbanConfig`` that holds it.

    ``tx_power_mw`` is ``tx_power_dbm`` in mW, set once here: a power whose
    mW value is not a finite float (NaN, +inf, or beyond float range) is
    rejected, so every node that exists has a finite ``tx_power_mw``.
    tx_power_dbm may be -inf to mute a transmitter, which gives 0.0 mW (a
    muted interferer is indistinguishable from an absent one).
    """

    location: BodyLocation
    tx_power_dbm: float = 0.0
    tx_power_mw: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "tx_power_mw", _linear(self.tx_power_dbm, "tx_power_dbm"))


@dataclass(frozen=True)
class WbanConfig:
    """Star network on one subject: hub, two relays, one to three sensors.

    The hub and the relays occupy three distinct torso locations drawn
    from chest, left hip and right hip; sensors sit at other, mutually
    distinct body locations.
    """

    subject: int
    hub: NodeSpec
    relays: tuple[NodeSpec, NodeSpec]
    sensors: tuple[NodeSpec, ...]

    def __post_init__(self):
        if len(self.relays) != 2:
            raise FieldError("relays", "exactly two relay nodes are required")
        if not 1 <= len(self.sensors) <= 3:
            raise FieldError("sensors", "one to three sensor nodes are required")
        coord_locs = {self.hub.location, self.relays[0].location, self.relays[1].location}
        if len(coord_locs) != 3 or not coord_locs <= COORDINATOR_LOCATIONS:
            raise ValueError("hub and relays must occupy three distinct locations "
                             "among chest, left hip and right hip")
        sensor_locs = [s.location for s in self.sensors]
        if len(set(sensor_locs)) != len(sensor_locs):
            raise ValueError("sensor locations must be distinct")
        if set(sensor_locs) & coord_locs:
            raise ValueError("sensor locations must differ from hub and relay locations")


@dataclass(frozen=True)
class MacConfig:
    """Slotted medium access shared by all coexisting networks.

    Each network transmits for one slot of slot_len_ms per cycle and is
    idle for the remaining (n_coexisting - 1) slots.
    """

    n_coexisting: int = 2
    slot_len_ms: float = 60.0
    beacon_frac: float = 0.1

    def __post_init__(self):
        if not (isinstance(self.n_coexisting, int) and self.n_coexisting >= 1):
            raise ValueError(f"n_coexisting must be an integer >= 1, got {self.n_coexisting}")
        if not (math.isfinite(self.slot_len_ms) and self.slot_len_ms > 0):
            raise ValueError(f"slot_len_ms must be positive, got {self.slot_len_ms}")
        if not 0 <= self.beacon_frac < 1:
            raise ValueError(f"beacon_frac must lie in [0, 1), got {self.beacon_frac}")
        if not math.isfinite(self.cycle_ms):
            raise ValueError(f"n_coexisting * slot_len_ms must be finite, got "
                             f"{self.n_coexisting} * {self.slot_len_ms} = {self.cycle_ms}")

    @property
    def cycle_ms(self) -> float:
        return self.n_coexisting * self.slot_len_ms


@dataclass(frozen=True)
class SuperframeLayout:
    """Sub-interval layout of one superframe, relative to its offset.

    ``transmissions`` lists (rel start, dur, node) in time order; the first
    is the hub's beacon.
    """

    broadcast: tuple[tuple[float, float], ...]  # per sensor: (rel start, dur)
    forward: tuple[tuple[float, float], ...]
    transmissions: tuple[tuple[float, float, NodeSpec], ...]


def superframe_layout(wban: WbanConfig, mac: MacConfig) -> SuperframeLayout:
    """Relative sub-interval layout: beacon first, then per-sensor slots.

    The beacon takes beacon_frac of the slot; the remainder is split
    evenly over the sensors, and each sensor slot splits 50/50 into the
    sensor's broadcast and the relay forward sub-interval. Forward
    sub-intervals alternate between the two relays for transmit power
    accounting (which relay actually forwards is decided per packet).
    """
    beacon_dur = mac.beacon_frac * mac.slot_len_ms
    sensor_span = mac.slot_len_ms - beacon_dur
    slot = sensor_span / len(wban.sensors)
    if slot <= 0:
        raise ValueError(f"sensors exceed the slot budget: {len(wban.sensors)} sensors "
                         f"in {sensor_span} ms of sensor time")
    half = slot / 2.0
    broadcast, forward, txs = [], [], [(0.0, beacon_dur, wban.hub)]
    for i, sensor in enumerate(wban.sensors):
        b_rel = beacon_dur + i * slot
        f_rel = b_rel + half
        broadcast.append((b_rel, half))
        forward.append((f_rel, half))
        txs.append((b_rel, half, sensor))
        txs.append((f_rel, half, wban.relays[i % len(wban.relays)]))
    return SuperframeLayout(tuple(broadcast), tuple(forward), tuple(txs))


def overlap_lengths(delta, dur_a, dur_b, cycle_ms):
    """Circular overlap length of arcs [0, dur_a) and [delta, delta + dur_b).

    delta must already be reduced modulo the cycle; accepts scalars or
    numpy arrays for delta.
    """
    end_b = delta + dur_b
    direct = np.maximum(0.0, np.minimum(np.minimum(end_b, cycle_ms), dur_a) - delta)
    wrapped = np.maximum(0.0, np.minimum(dur_a, np.maximum(end_b - cycle_ms, 0.0)))
    return direct + wrapped

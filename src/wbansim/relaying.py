"""Receiver noise and three-branch opportunistic relay selection.

A sensor packet reaches the hub over the direct link and, through one of
two decode-and-forward relays, over a two-hop path whose quality is the
weaker of its hops. Each superframe the relay whose weaker hop is
strongest is selected, and the hub keeps whichever arriving copy carries
the higher SINR.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import _linear


@dataclass(frozen=True)
class NoiseModel:
    """Receiver noise floor, flat across devices.

    ``noise_mw`` is the floor in mW, set once here; a floor whose mW value
    is not a finite float > 0 is rejected, so no SINR divides by zero.
    """

    noise_floor_dbm: float = -100.0
    noise_mw: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "noise_mw",
                           _linear(self.noise_floor_dbm, "noise_floor_dbm", positive=True))


def cooperative_sinr(nu_direct, nu_sr, nu_rh):
    """Cooperative SINR: the better of the direct copy and the selected relay branch.

    Args:
        nu_direct: Linear SINR of the direct sensor-to-hub copy per packet.
        nu_sr: (relay 1, relay 2) linear SINRs of the sensor-to-relay hop.
        nu_rh: (relay 1, relay 2) linear SINRs of the relay-to-hub hop.

    Per packet, the relay whose weaker hop is strongest is selected, and
    its branch carries that weaker hop; the result does not depend on the
    order of the relays. A muted relay has zero hop SINRs, so its branch
    never beats the direct copy. Works element-wise on scalars or numpy
    arrays.
    """
    relay = np.maximum(np.minimum(nu_sr[0], nu_rh[0]), np.minimum(nu_sr[1], nu_rh[1]))
    return np.maximum(nu_direct, relay)

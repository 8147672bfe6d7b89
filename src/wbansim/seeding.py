"""Deterministic derivation of independent random substreams.

Every random quantity in the simulator (channel synthesis, superframe
offsets, repetition start indices) pulls from its own generator, derived
from the master seed and a label path. Labelled derivation keeps streams
independent of creation order, so adding a network or a link never shifts
the randomness of the existing ones.
"""

import hashlib

import numpy as np


def derive_seed(master_seed: int, *labels) -> int:
    """Stable 64-bit seed for a master seed in [0, 2**64) and a label path."""
    key = "/".join(str(part) for part in labels)
    digest = hashlib.sha256(f"{master_seed}/{key}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def substream(master_seed: int, *labels) -> np.random.Generator:
    """Fresh deterministic generator for the given label path."""
    return np.random.default_rng(derive_seed(master_seed, *labels))

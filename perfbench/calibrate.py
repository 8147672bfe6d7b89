"""A fixed calibration kernel that measures how fast the host is right now.

On a shared host the speed of one process drifts by tens of percent over
minutes, far more than any bound a wall-time comparison could use. The
kernel is timed in the same process between the measured iterations, and a
run's median time is rescaled by REF_SECONDS / (median kernel time). A
drift slows the kernel and the measurement alike and cancels; a change to
wbansim does not touch the kernel. Its mix is the one wbansim spends its time in: Python-level loops
and many small numpy calls.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel seconds at the speed the benchmark reports in: the median of the
# kernel on 2 vCPUs of an Intel Xeon, Python 3.11.7, numpy 2.4.6. Changing
# it rescales every reported time, so it stays fixed.
REF_SECONDS = 0.09

_GRID = np.arange(2000) * 120.0


def kernel_seconds() -> float:
    """Wall seconds of one run of the fixed kernel."""
    start = time.perf_counter()
    total = 0
    for i in range(600_000):
        total += i * i
    for _ in range(1200):
        steps = np.diff(_GRID)
        np.allclose(steps, steps[0], rtol=1e-9, atol=0.0)
    return time.perf_counter() - start


def scale(seconds: float, kernel: float) -> float:
    """Seconds measured beside kernel runs of median ``kernel``, at the reference speed."""
    return seconds * REF_SECONDS / kernel

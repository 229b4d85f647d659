"""Host-speed calibration: a fixed reference kernel timed during a run.

A shared 2-vCPU host (x86_64 cloud VM) changes speed by up to about
1.8x within seconds, for all code alike, with no steal time to show
for it: a fixed kernel, run alone, took from 1x to 1.8x its fastest
time within one 25 s run, while the ratio of an ``array_sweep`` op to
the kernel run beside it held within about 10%.  The runner therefore
times :func:`kernel` every :data:`PERIOD_S` between ops and scales each
timing by ``NOMINAL_S / (kernel time near it)``: a time "at reference
speed", the speed at which the kernel takes :data:`NOMINAL_S`.  The kernel uses no
code of the program, so a change to the program moves the scaled times
exactly as it moves the raw ones on a host of steady speed.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import List, Tuple

import numpy as np

#: Kernel time that defines reference speed [s] (a little under its
#: median on a 2-vCPU x86_64 cloud VM).
NOMINAL_S = 2e-3
#: Least time between two kernel samples in a timed loop [s].
PERIOD_S = 0.1
#: Kernel samples nearest in time that a scale factor takes the median of.
NEIGHBOURS = 5

_MATRIX = np.arange(400.0).reshape(20, 20) + 50.0 * np.eye(20)
_RHS = np.ones(20)


def kernel() -> float:
    """Fixed interpreter and small-numpy work, like the ops; its seconds."""
    start = time.perf_counter()
    table = {}
    acc = 0.0
    for i in range(5000):
        table[i % 97] = table.get(i % 97, 0.0) + i * 0.5
        acc += (i ^ 7) * 1e-3
    for _ in range(50):
        np.linalg.solve(_MATRIX, _RHS)
    return time.perf_counter() - start


class HostSpeed:
    """Kernel samples of one run, as ``(mid time, seconds)`` in time order."""

    def __init__(self):
        kernel()  # first call pays one-off numpy set-up
        self.samples: List[Tuple[float, float]] = []

    def sample(self) -> None:
        start = time.perf_counter()
        seconds = kernel()
        self.samples.append((start + seconds / 2.0, seconds))

    def tick(self) -> None:
        """Sample when :data:`PERIOD_S` has passed since the last sample."""
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= PERIOD_S:
            self.sample()

    def scale(self, at: float) -> float:
        """``NOMINAL_S`` over the median kernel time of the
        :data:`NEIGHBOURS` samples nearest to time ``at``."""
        times = [t for t, _ in self.samples]
        i = bisect.bisect_left(times, at)
        lo = max(0, min(i - NEIGHBOURS // 2, len(times) - NEIGHBOURS))
        near = [s for _, s in self.samples[lo:lo + NEIGHBOURS]]
        return NOMINAL_S / statistics.median(near)

    def median_scale(self) -> float:
        """``NOMINAL_S`` over the median of all samples."""
        return NOMINAL_S / statistics.median(s for _, s in self.samples)

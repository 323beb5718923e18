"""Calibrated time: measured time rescaled by the host's current speed.

On a shared host, CPU throughput can swing by a factor of up to two within
seconds, and it swings alike for interpreter-bound and BLAS-bound work.  On
a shared host with two Intel Xeon vCPUs, the iterations of a pure Python
loop in 1 s blocks varied by up to 1.85x and 5 s medians of the study
operation ranged from 145 to 210 ms, while the ratio of the operation to
the calibration kernel below stayed within 29.9-32.5.

``Calibration`` times a fixed kernel that uses no ``qritz`` code (a dense
complex SVD plus an interpreter loop) before and after each measured
interval.  A calibrated time is the measured time multiplied by
``REFERENCE_S`` over the mean of those two calibration times: the time the
interval would take on a host where the kernel takes ``REFERENCE_S``.
"""

from __future__ import annotations

import time

import numpy as np

#: Calibration time that calibrated seconds are expressed against.
REFERENCE_S = 0.005

_SIZE = 150
_LOOP = 60_000


class Calibration:
    """Fixed calibration kernel and the scale factor of each measured interval."""

    def __init__(self):
        g = np.random.Generator(np.random.Philox(key=0))
        self.matrix = g.standard_normal((_SIZE, _SIZE)) + 1j * g.standard_normal((_SIZE, _SIZE))
        self.measure()  # first call pays one-time costs
        self.last = self.measure()
        self.samples: list[float] = [self.last]

    def measure(self) -> float:
        """Seconds taken by one pass of the kernel."""
        t0 = time.perf_counter()
        np.linalg.svd(self.matrix, compute_uv=False)
        n = 0
        for _ in range(_LOOP):
            n += 1
        return time.perf_counter() - t0

    def scale(self) -> float:
        """Factor for the interval that just ended: ``REFERENCE_S`` over the
        mean of the calibrations taken right before and right after it."""
        before, self.last = self.last, self.measure()
        self.samples.append(self.last)
        return REFERENCE_S / (0.5 * (before + self.last))

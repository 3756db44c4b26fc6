"""Host speed reference for the benchmark.

Other processes on a shared host slow the CPU itself, in phases that
last minutes and by up to half or more; per-process CPU time slows with
wall time, so it cannot separate them. The benchmark times a fixed kernel
that does not use the package next to what it measures, and scales its
times by the kernel's slowdown. See README.md.
"""

from __future__ import annotations

import time

import numpy as np

# Fastest time in seconds of one HostReference run per grid edge, on the
# 2-CPU Xeon host the benchmark was tuned on: the host of slowdown 1.
NOMINAL_S = {16: 0.048, 32: 0.055, 64: 0.115}


class HostReference:
    """A fixed kernel that uses numpy and Python but not the package: 60
    FFT round trips with a 2x2 einsum on a spinor-shaped 16^3 field, a
    loop over a dict, and two FFT round trips on a field of the
    workload's grid.

    The workload runs it after every job, and its fastest time in a run
    measures the host's speed in that run; run.py runs it after every
    set-up sample."""

    def __init__(self, n: int):
        rng = np.random.default_rng(0)
        self.nominal_s = NOMINAL_S[n]
        self.small = rng.normal(size=(16, 16, 16, 2)) + 1j * rng.normal(size=(16, 16, 16, 2))
        self.factor = rng.normal(size=(16, 16, 16, 1))
        self.matrix = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        self.large = rng.normal(size=(n, n, n, 2)) + 1j * rng.normal(size=(n, n, n, 2))

    def slowdown(self) -> float:
        """Time of one run of the kernel over its nominal time."""
        start = time.perf_counter()
        for _ in range(60):
            spectrum = np.fft.fftn(self.small, axes=(0, 1, 2)) * self.factor
            mixed = np.einsum("ij,xyzj->xyzi", self.matrix,
                              np.fft.ifftn(spectrum, axes=(0, 1, 2)))
            float(np.abs(mixed).max())
        table = {}
        for i in range(60000):
            table[i % 97] = table.get(i % 97, 0.0) + 0.5 * i
        for _ in range(2):
            round_trip = np.fft.ifftn(np.fft.fftn(self.large, axes=(0, 1, 2)), axes=(0, 1, 2))
            float(np.abs(round_trip).max())
        return (time.perf_counter() - start) / self.nominal_s

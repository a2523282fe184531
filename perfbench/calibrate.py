"""Machine-speed calibration for host timings.

On a shared VM the speed available to one process drifts by 20-40% over
tens of seconds, far more than a run's repeats differ among themselves.
A fixed kernel (interpreter loops, dict updates, a NumPy gather, a sort and
a small matrix product) is timed right before and after every set-up and
every repeat; host times are then scaled to the speed at which the kernel
takes ``REFERENCE_S`` seconds.  The kernel is benchmark code, so a change
to the program does not move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: the kernel's median time on the 2-core VM the benchmark was tuned on
REFERENCE_S = 0.011


class Calibrator:
    def __init__(self, rounds: int = 8) -> None:
        rng = np.random.default_rng(0)
        self.rounds = rounds
        self._matrix = rng.random((128, 128))
        self._table = rng.random((100_000, 16))
        self._index = rng.integers(0, 100_000, 50_000)
        self._last = self.measure()

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(30_000):
            acc += i * i
        table = {}
        for i in range(20_000):
            table[i & 1023] = i
        self._table[self._index].sum()
        np.sort(self._index)
        self._matrix @ self._matrix
        return time.perf_counter() - t0

    def measure(self) -> float:
        """Median kernel seconds over ``rounds`` runs."""
        return statistics.median(self._kernel() for _ in range(self.rounds))

    def factor(self) -> float:
        """Scale for the host time spent since the previous call: the
        reference kernel time over the mean of the kernel times measured
        on either side of it."""
        now = self.measure()
        around = (self._last + now) / 2.0
        self._last = now
        return REFERENCE_S / around

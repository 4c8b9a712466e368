"""Wall times at a reference machine speed, for a machine whose speed drifts.

The measuring machine is shared: other tenants on its cores slow it down by up
to a factor of 1.6, in steps that last from under a second to minutes, and
CPU time slows with wall time. A ``SpeedSampler`` measures that speed while
the workload runs. A timer interrupts the main thread every ``PERIOD_S``
seconds, and the signal handler times a fixed kernel whose inputs never
change, so only the machine changes its time. The kernel mixes what the
workloads do: a numpy scatter-add and sort on mid-sized arrays, a loop of
numpy calls on small arrays, and a Python loop of dict lookups. Of the
kernels tried (JSON round trips, Python loops, page faults, numpy calls on
arrays of several sizes, and mixes), this mix's time tracked the operations'
wall time most closely over all workloads.

``at_reference`` turns an interval into its wall time minus the time the
handler took inside it, scaled by ``REFERENCE_KERNEL_S`` over the median
kernel time sampled during the interval (widened to ``MIN_WINDOW_S`` for short
intervals). A faster program gives a shorter scaled time. A slower machine
gives a longer one too, but by much less than it lengthens the wall time: the
kernel and the workloads do not slow by the same factor under every kind of
contention, so scaling narrows the spread between runs without removing it.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05
MIN_WINDOW_S = 0.25
# A round figure near the kernel's median time inside the workloads' operations
# on the measuring machine (2 vCPUs at 2.1 GHz); scaled times are in seconds of
# that machine at its usual speed.
REFERENCE_KERNEL_S = 0.0009


class SpeedSampler:
    """Samples the kernel's time from a SIGALRM handler while it is running."""

    def __init__(self):
        rng = np.random.default_rng(20_020_853)
        self.values = rng.random(50_000)
        self.index = rng.integers(0, 480, self.values.size)
        self.keys = rng.random(20_000)
        self.small_values = rng.random(1_000)
        self.small_index = rng.integers(0, 48, self.small_values.size)
        self.table = {i: float(i) for i in range(200)}
        self.ends: list[float] = []  # when each sample ended, ascending
        self.samples: list[float] = []  # kernel seconds
        self.busy = 0.0  # total kernel seconds so far
        for _ in range(20):
            self.kernel()

    def kernel(self) -> None:
        np.add.at(np.zeros(480), self.index, self.values)
        np.sort(self.keys)
        for _ in range(10):
            np.add.at(np.zeros(48), self.small_index, self.small_values)
            np.sort(self.small_values)
            (self.small_values * 2.0).sum()
        total = 0.0
        for key in range(2_000):
            total += self.table[key % 200]

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self.ends.append(t1)
        self.samples.append(t1 - t0)
        self.busy += t1 - t0

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()  # so that even a run shorter than PERIOD_S has a sample

    def mark(self) -> tuple[float, float]:
        """The start of an interval, to hand to ``interval``."""
        return time.perf_counter(), self.busy

    def interval(self, mark: tuple[float, float]) -> tuple[float, float, float]:
        """(start, end, wall time without the handler's) of the interval since mark."""
        start, busy = mark
        end = time.perf_counter()
        return start, end, end - start - (self.busy - busy)

    def at_reference(self, interval: tuple[float, float, float]) -> float:
        """The interval's wall time scaled to the reference speed."""
        start, end, wall = interval
        widen = max(MIN_WINDOW_S - (end - start), 0.0) / 2
        lo = bisect.bisect_left(self.ends, start - widen)
        hi = bisect.bisect_right(self.ends, end + widen)
        # An empty window falls back to the samples just before and after it.
        window = self.samples[lo:hi] or self.samples[max(lo - 1, 0):lo + 1]
        return wall * REFERENCE_KERNEL_S / statistics.median(window)

    def speed(self) -> float:
        """The machine's median speed over the run, 1.0 being the reference."""
        return REFERENCE_KERNEL_S / statistics.median(self.samples)

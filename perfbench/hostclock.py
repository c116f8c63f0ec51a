"""Host-speed sampling for timings on a shared machine.

On a shared 2-vCPU virtual machine (Intel Xeon, 2.1 GHz), other tenants'
load slowed a single-threaded run by up to 1.8x.  The slow phases lasted from
seconds to minutes, with no steal time reported.  Wall-clock medians of 30 s
runs then spread by 20-35% between runs, wider than any useful regression
bound.

``HostClock`` times a fixed reference kernel from a timer signal every
``INTERVAL`` seconds while a measurement runs.  The kernel runs twice per
tick and only the second, cache-warm run is timed, so its time tracks the
host's speed rather than the cache state the measured code left behind.
A measured interval is reported as its wall time, minus the time the ticks
took, scaled by ``NOMINAL_TICK_S`` over the mean tick time during the
interval: seconds at the host speed where one warm kernel run takes
``NOMINAL_TICK_S``.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

import numpy as np

INTERVAL = 0.1
NOMINAL_TICK_S = 2.0e-3

_SMALL = np.random.default_rng(0).standard_normal(384) + 0j
_LARGE = np.random.default_rng(1).standard_normal((3, 24, 24, 24)) + 0j
_FFTN, _IFFTN = np.fft.fftn, np.fft.ifftn  # bound before any tracing patches numpy


def _reference_kernel() -> None:
    """Interpreter loop, small transforms and one 3x24^3 transform, as in the workloads."""
    total = 0
    for j in range(3000):
        total += j * j
    for _ in range(10):
        _IFFTN(_FFTN(_SMALL))
    _IFFTN(_FFTN(_LARGE, axes=(1, 2, 3)), axes=(1, 2, 3))


class HostClock:
    """Context manager that samples the reference kernel from ``SIGALRM``."""

    def __init__(self) -> None:
        self.stamps: list[float] = []  # when each tick ended
        self.ticks: list[float] = []  # duration of the timed kernel run
        self.spent = 0.0  # total time inside tick handlers

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        _reference_kernel()
        timed = perf_counter()
        _reference_kernel()
        end = perf_counter()
        self.ticks.append(end - timed)
        self.stamps.append(end)
        self.spent += end - start

    def __enter__(self) -> "HostClock":
        self._tick(None, None)  # so every interval has a nearest tick
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def normalized(self, t0: float, t1: float, spent: float) -> float:
        """Host-normalized length of ``[t0, t1]``, of which ticks took ``spent``."""
        lo = bisect.bisect_left(self.stamps, t0)
        hi = bisect.bisect_right(self.stamps, t1)
        if hi == lo:  # no tick inside: use the one before
            lo, hi = max(lo - 1, 0), max(lo, 1)
        speed = NOMINAL_TICK_S / statistics.fmean(self.ticks[lo:hi])
        return (t1 - t0 - spent) * speed


class WallClock:
    """Plain wall time with the ``HostClock`` interface, for traced runs,
    where reference ticks would be recorded as spans."""

    spent = 0.0

    def __enter__(self) -> "WallClock":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def normalized(self, t0: float, t1: float, spent: float) -> float:
        return t1 - t0

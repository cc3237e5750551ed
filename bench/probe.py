"""A speed probe: the machine's current speed, sampled while a pass runs.

The shared machine this benchmark was built on changes speed by up to
1.6x, in phases that last 5-30 s, so a whole run can fall in a slow
phase.  A fixed integer kernel, independent of the program, is timed
every PERIOD seconds from a SIGALRM handler in the process doing the
work.  A time taken around a moment is then scaled by REFERENCE_S over
the kernel's mean time near that moment: it reads as the time the work
would take at the speed where the kernel takes REFERENCE_S.

The probe's own time is kept out of every measurement: now() is
perf_counter minus the time spent in the handler.
"""

from __future__ import annotations

import signal
import time
from bisect import bisect_left, bisect_right
from math import isqrt

PERIOD = 0.05  # seconds between samples
WINDOW = 0.5  # seconds either side of a field whose samples give its speed
REFERENCE_S = 0.0003  # kernel time that defines the reference speed
_D = 10**12 + 39


def kernel(steps: int = 600) -> int:
    """Continued-fraction steps of sqrt(10^12 + 39) with growing convergents."""
    s = isqrt(_D)
    P, Q = s, 1
    q0, q1 = 1, 0
    for _ in range(steps):
        a = (P + s) // Q
        q0, q1 = q1, a * q1 + q0
        P = a * Q - P
        Q = (_D - P * P) // Q
    return q1


class SpeedProbe:
    """Kernel samples of one process, and a clock that excludes them."""

    def __init__(self):
        self.paused = 0.0
        self.moments: list[float] = []  # on now()'s scale
        self.kernel_s: list[float] = []
        self.running = False

    def now(self) -> float:
        return time.perf_counter() - self.paused

    def sample(self) -> None:
        """Time the kernel once, now."""
        self._sample(None, None)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        self.moments.append(start - self.paused)
        self.kernel_s.append(time.perf_counter() - start)
        self.paused += time.perf_counter() - start

    def start(self) -> None:
        if not self.running:
            signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
            self.running = True

    def stop(self) -> None:
        if self.running:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self.running = False

    def take(self, since: int) -> tuple[list[float], list[float]]:
        """(moments, kernel times) of the samples from number `since` on."""
        return self.moments[since:], self.kernel_s[since:]


def _trimmed_mean(kernel_s: list[float]) -> float:
    """Mean with the slowest tenth left out."""
    kept = sorted(kernel_s)[: max(1, len(kernel_s) - len(kernel_s) // 10)]
    return sum(kept) / len(kept)


class SpeedMap:
    """Speed factors from one process's samples: REFERENCE_S over a mean kernel time."""

    def __init__(self, moments: list[float], kernel_s: list[float]):
        if not kernel_s:
            raise ValueError("no probe samples")
        pairs = sorted(zip(moments, kernel_s))
        self.moments = [t for t, _ in pairs]
        self.kernel_s = [k for _, k in pairs]

    def overall(self) -> float:
        """The factor from every sample."""
        return REFERENCE_S / _trimmed_mean(self.kernel_s)

    def around(self, start: float, end: float) -> float:
        """The factor from the samples in [start, end], widened to WINDOW
        either side of its middle; the nearest sample if none fall in."""
        mid = (start + end) / 2
        lo = bisect_left(self.moments, min(start, mid - WINDOW))
        hi = bisect_right(self.moments, max(end, mid + WINDOW))
        if hi > lo:
            return REFERENCE_S / _trimmed_mean(self.kernel_s[lo:hi])
        i = min(bisect_left(self.moments, mid), len(self.moments) - 1)
        if i > 0 and mid - self.moments[i - 1] < abs(self.moments[i] - mid):
            i -= 1
        return REFERENCE_S / self.kernel_s[i]

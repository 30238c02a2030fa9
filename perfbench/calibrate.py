"""Calibrated timing against the host's drifting speed.

The CPU this benchmark runs on is shared: the same pure-Python work runs up to
twice as slow for stretches of seconds to minutes, so raw times of identical
runs spread far more than the changes worth detecting.  `CalibratedClock`
interleaves a fixed probe with the measured work: a SIGALRM every PERIOD_S
seconds runs `probe()` (this package's own code, never vinery's) and records
its duration.  A measured interval minus the probes inside it is split at the
probes, and each piece is scaled by REFERENCE_S over the median of the probes
around it: the result is the interval's duration at a host speed where the
probe takes REFERENCE_S.  Raw times are kept beside the calibrated ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

import workloads as wl

PERIOD_S = 0.025
# About the probe's duration on a 2-vCPU Intel Xeon host while it runs fast,
# so that calibrated times read close to raw seconds there.
REFERENCE_S = 0.7e-3
WINDOW = 9  # probes per local median, about a quarter second

_GROUND = frozenset("abcde")
_NODES = frozenset(frozenset(s) for s in ("a", "b", "c", "d", "e", "ab", "be", "ce", "de",
                                          "abe", "bce", "bde", "abce", "bcde", "abcde"))


def probe() -> None:
    """Fixed set, dict and sort work in the style of vinery's own."""
    for kind in wl.KINDS:
        wl.render(_GROUND, _NODES, kind)
    wl.invariants(_GROUND, _NODES)


class CalibratedClock:
    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._medians: list[float] = []

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        probe()
        self.starts.append(start)
        self.durations.append(perf_counter() - start)

    def __enter__(self):
        self._tick(None, None)  # one probe at each end, so even a short interval has a reference
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)
        half = WINDOW // 2
        d = self.durations
        self._medians = [statistics.median(d[max(0, i - half): i + half + 1]) for i in range(len(d))]

    def probes_in(self, t0: float, t1: float) -> float:
        """Raw probe time inside [t0, t1]."""
        lo, hi = bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)
        return sum(self.durations[lo:hi])

    def calibrated(self, t0: float, t1: float) -> float:
        """Work time in [t0, t1], probes excluded, at the reference speed (after __exit__)."""
        last = len(self.starts) - 1
        i = bisect.bisect_left(self.starts, t0)
        total, cursor = 0.0, t0
        while i <= last and self.starts[i] < t1:
            total += (self.starts[i] - cursor) / self._medians[i]
            cursor = self.starts[i] + self.durations[i]
            i += 1
        total += (t1 - cursor) / self._medians[min(i, last)]
        return total * REFERENCE_S

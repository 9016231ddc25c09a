"""Rescale timings to a reference CPU speed measured during the job.

On a shared 2-vCPU host the same round's wall time swings by a third
from one minute to the next as other tenants load the machine (57
rounds of ``paper`` in a row ranged from 6.5 s to 12.1 s).  A speed
measured before or after the job does not follow those swings, so
:class:`SpeedProbe` measures *during* it: every :data:`INTERVAL_S`
seconds a ``SIGALRM`` handler times a fixed pure-Python spin.  A window's rescaled
time is its wall time, minus the probe's own spins, times
:data:`REFERENCE_SPIN_S` over the mean spin inside the window — seconds
at the reference speed.  On those 57 rounds this cut the spread of one
round's time (interquartile range over median) from 28% to 7%.

The probe only does arithmetic on its own locals, so it cannot change
what the job computes; the harness's digest checks confirm it.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List, Optional, Tuple

#: One spin's duration on an unloaded core of the reference machine (an
#: Intel Xeon KVM guest with 2 vCPUs and Python 3.11), in seconds.
REFERENCE_SPIN_S = 2.75e-4

#: Seconds between samples.  Each costs about one :data:`REFERENCE_SPIN_S`,
#: so the probe adds roughly 0.6% to the job; the committed bounds were
#: measured at this interval.
INTERVAL_S = 0.05

_SPIN_ITERATIONS = 5_000


def _spin() -> int:
    total = 0
    for i in range(_SPIN_ITERATIONS):
        total += i * i % 7
    return total


class SpeedProbe:
    """Samples the CPU's speed while used as a context manager."""

    def __init__(self):
        #: ``(perf_counter at start, duration)`` of every spin.
        self.samples: List[Tuple[float, float]] = []
        self._previous = None

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        _spin()
        self.samples.append((start, time.perf_counter() - start))

    def speed(self, start: float, end: float) -> float:
        """Reference spin time over the mean spin between ``start`` and
        ``end`` (over all samples when none fell inside; 1.0 without
        any)."""
        spins = [d for s, d in self.samples if start <= s < end]
        spins = spins or [d for _, d in self.samples]
        return REFERENCE_SPIN_S / statistics.fmean(spins) if spins else 1.0

    def rescaled(self, start: float, end: Optional[float]) -> Optional[float]:
        """Seconds at the reference speed between two ``perf_counter``
        readings, the probe's own spins excluded."""
        if end is None:
            return None
        spent = sum(d for s, d in self.samples if start <= s < end)
        return (end - start - spent) * self.speed(start, end)

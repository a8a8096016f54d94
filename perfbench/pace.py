"""Host speed, sampled while a timed region runs.

The benchmark runs on a share of a machine whose speed wanders: the same
``rates_check`` operation took 2.2 s and 4.6 s less than a minute apart,
in one process, with no steal time recorded, and the speed flips between
fast and slow spells within a second.  A probe timed before and after a
repetition samples other spells than the repetition itself and does not
cancel that.

``Pace`` samples inside the region instead.  A timer signal interrupts it
every ``INTERVAL_S`` of wall time, and the handler times ``probe``: a fixed
loop of small numpy calls (seeding a generator, drawing, a ufunc) that
calls no kernelbcd code, so no change to the program can change it.  The
mean probe time over the region, against ``REFERENCE_S``, is how much
slower than the reference speed the host ran during that region.
``adjusted`` divides it out of the region's own time (wall time less the
probes): the region's seconds at reference speed.

On stretches of 100 to 150 seconds of repetitions, the quartile spread of
medians of 3 to 8 repetitions was 0.07-0.24 of the median in wall seconds
and 0.01-0.05 in adjusted seconds, on ``rates_check``, ``rf_to_tol`` and
``nystrom_path``; README.md has the figures.  A pure-Python probe loop
tracked the host less well (0.09-0.11).
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

INTERVAL_S = 0.1
PROBE_ITERATIONS = 50
# Median probe time on the 2-vCPU x86_64 VM that defined the benchmark
# (Python 3.11, numpy 2.4).  Adjusted seconds are seconds at that speed.
REFERENCE_S = 0.0018


def probe() -> float:
    """Time one run of the fixed loop."""
    start = perf_counter()
    total = 0.0
    for i in range(PROBE_ITERATIONS):
        rng = np.random.default_rng(np.random.SeedSequence([i, 7]))
        total += float(np.cos(rng.standard_normal(48)).sum())
    return perf_counter() - start


class Pace:
    """Context manager timing a region and probing host speed inside it.

    A probe runs just before the region, untimed, so that the first call
    of the loop in a fresh process does not count as a slow host.  One
    more runs just after it, so even a region shorter than ``INTERVAL_S``
    has a sample; it is not part of the region's time.
    """

    def __init__(self):
        self.probes: list[float] = []
        self.wall_s = 0.0
        self._inside = 0.0
        self._previous = None
        self._start = 0.0

    def _handler(self, signum, frame):
        self.probes.append(probe())

    def __enter__(self):
        probe()
        self.probes = []
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.wall_s = perf_counter() - self._start
        self._inside = sum(self.probes)
        signal.signal(signal.SIGALRM, self._previous)
        self.probes.append(probe())
        return False

    @property
    def own_s(self) -> float:
        """Wall time of the region less the probes that interrupted it."""
        return self.wall_s - self._inside

    @property
    def slowdown(self) -> float:
        """Mean probe time over the reference: above 1 on a slow host."""
        return statistics.fmean(self.probes) / REFERENCE_S

    @property
    def adjusted(self) -> float:
        """The region's own time at reference host speed."""
        return self.own_s / self.slowdown

"""The machine's speed at a moment, from a fixed piece of work.

On a shared machine the processor runs the same pure-Python code up to
twice as fast in one minute as in the next, and the speed can change in
the middle of a long operation.  That drift is larger than any bound a
benchmark could hold, and CPU time follows it as closely as wall time.
So `Meter.time` reads the speed right before and right after an operation and,
from a timer signal, every PERIOD_S while it runs, and scales its wall
time to REFERENCE_S, the time the kernel takes at the reference speed.
The time spent in those readings is not counted.

The kernel is the benchmark's own code and never changes with the
program: a dense `Fraction` elimination, as in an exact simplex, and a
small tuple-and-set enumeration, as in bounded-flow enumeration.  A
faster program therefore shows in full, while a slower machine does not.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from itertools import product
from time import perf_counter

# median kernel time on the reference machine (2 cores, CPython 3.11.7)
REFERENCE_S = 0.008
SAMPLES = 3
PERIOD_S = 0.2


def _kernel() -> float:
    t0 = perf_counter()
    rows = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(24)]
            for i in range(12)]
    for r in range(8):
        pivot = rows[r][r] or Fraction(1)
        prow = [x / pivot for x in rows[r]]
        for i in range(12):
            f = rows[i][r]
            if i != r and f:
                rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
    seen = set()
    for t in product(range(4), repeat=5):
        if sum(t) % 3 == 0:
            seen.add(t)
    return perf_counter() - t0


def reading() -> float:
    """Median time of SAMPLES kernel runs, in seconds."""
    return statistics.median(_kernel() for _ in range(SAMPLES))


class Meter:
    """Times calls at the reference speed; the reading taken after one call
    serves as the reading before the next."""

    def __init__(self):
        self.last = reading()

    def time(self, fn):
        """Call fn(); return its result and its wall time at the reference
        speed.  An exception from fn propagates once the timer is stopped."""
        readings = [self.last]
        spent = 0.0

        def tick(signum, frame):
            nonlocal spent
            t0 = perf_counter()
            readings.append(_kernel())
            spent += perf_counter() - t0

        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        t0 = perf_counter()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = perf_counter() - t0 - spent
            signal.signal(signal.SIGALRM, previous)
            self.last = reading()
        readings.append(self.last)
        return result, elapsed * REFERENCE_S / statistics.fmean(readings)

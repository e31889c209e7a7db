"""Machine-speed probe, so that timings survive a host whose speed swings.

The host this benchmark was tuned on (a 2-vCPU Xeon VM) swings between a
fast and a slow state every few seconds, up to a factor of two, so raw wall
times of identical queries spread by 20-70% between runs.  While a
``SpeedProbe`` is active, a timer interrupts the program every
``INTERVAL_S`` and times a fixed piece of pure-Python work that does not
touch paftd: an integer loop, which tracks the core's speed, plus Fraction,
frozenset and dict churn like the DP's, which tracks the allocator and the
caches.  ``normalized`` turns the wall time since a mark into *reference
seconds*: the wall time minus the probes' own time, scaled by
``REFERENCE_S`` over the median probe time seen meanwhile.  A change to
paftd moves reference seconds exactly as it moves wall time at a fixed
machine speed.  On the tuning host this cut the spread of a workload's
per-run medians from 0.15-0.67 to 0.03-0.05.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.05
REFERENCE_S = 0.0026  # the probe's median time on the tuning host
MIN_SAMPLES = 3


def _work() -> None:
    x = 0
    for i in range(20000):
        x += i * i & 7
    acc, table = Fraction(0), {}
    for i in range(1, 250):
        acc += Fraction(i % 9 + 1, 10) * Fraction(3, 7)
        table[(i, frozenset((i, i + 1)))] = acc


def _timed_work() -> float:
    # no collection inside the probe: it would be charged to the machine
    enabled = gc.isenabled()
    gc.disable()
    started = time.perf_counter()
    _work()
    took = time.perf_counter() - started
    if enabled:
        gc.enable()
    return took


class SpeedProbe:
    def __init__(self):
        self.samples: list[float] = []
        self.busy_s = 0.0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _fire(self, signum, frame) -> None:
        started = time.perf_counter()
        self.samples.append(_timed_work())
        self.busy_s += time.perf_counter() - started

    def mark(self) -> tuple[float, float, int]:
        return time.perf_counter(), self.busy_s, len(self.samples)

    def normalized(self, mark) -> tuple[float, float]:
        """(reference seconds, raw wall seconds) since ``mark``; the probes'
        own time is left out of both."""
        end = time.perf_counter()
        started, busy, n = mark
        wall = end - started - (self.busy_s - busy)
        during = self.samples[n:]
        if len(during) < MIN_SAMPLES:
            # a short interval borrows the most recent probes
            during = self.samples[-MIN_SAMPLES:]
        if not during:
            during = [_timed_work()]
        return wall * REFERENCE_S / statistics.median(during), wall

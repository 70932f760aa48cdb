"""Host-speed sampler for the benchmark's child processes.

The sandbox this benchmark was tuned on runs its vCPUs at two speeds that
differ by about 1.6x, and switches between them within seconds and for whole
minutes, so raw wall times of the same verdict spread by 20-30% from run to
run.  The sampler times a fixed pure-Python reference loop every INTERVAL_S,
from a SIGALRM handler, while the child does its real work.  The loop does
what the verifiers spend their time on, Fraction arithmetic and dict updates
keyed by tuples of Fractions: a loop of int dict updates alone tracked them
worse (coefficient of variation of scaled verdict times 0.026-0.033 against
0.015-0.026 for this loop, in the same processes).  ``speed`` is the
mean of REF_S / (sample time) over a window: 1.0 when the host ran at the
speed REF_S was taken at, lower when it was slower.  A wall time multiplied by
the speed of its window is the time the work would have taken at that speed.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

INTERVAL_S = 0.025
REF_S = 233e-6  # one reference sample on the 2-vCPU sandbox at its faster speed


def _reference():
    third, d = Fraction(1, 3), {}
    for i in range(40):
        key = ((Fraction(i, 12) + third) % 1, i & 7)
        d[key] = d.get(key, 0) + 1


class Sampler:
    def __init__(self):
        self.samples: list = []  # (start, REF_S / duration)

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._tick()

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def _tick(self, *_):
        # the first run warms the caches the child's own work evicted, so the
        # timed run reflects the host's speed and not the child's memory use
        _reference()
        start = time.perf_counter()
        _reference()
        self.samples.append((start, REF_S / (time.perf_counter() - start)))

    def speed(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """Mean relative speed of the samples taken in [start, end]; of all
        samples when that window holds none."""
        window = [s for t, s in self.samples if start <= t <= end] or [s for _, s in self.samples]
        return sum(window) / len(window)

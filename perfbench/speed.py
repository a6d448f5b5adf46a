"""Machine speed, measured with a fixed reference loop.

The benchmark runs on shared virtual machines whose speed drifts: the same
pure-Python loop takes from 0.65 to 1.3 ms on one 2-vCPU host within a few
seconds, and every timing of qshuffle moves with it.  So the runner times
``reference_loop`` right before and right after every operation and
set-up, and scales each timing to *reference speed*, the speed at which the
loop takes REFERENCE_S: a timing t becomes t * REFERENCE_S / r, where r is
the mean of the loop's times around it.  The loop does not touch qshuffle,
so a change to the library moves the scaled times exactly as it moves the
measured ones.

The mean, not the median: the machine switches between a fast and a slow
state many times a second, so a timing is slowed by the share of its time
spent in the slow state, which the mean of the loop's times follows and
their median does not (it jumps from one state to the other as that share
crosses one half).
"""

from __future__ import annotations

import gc
import statistics
from fractions import Fraction
from time import perf_counter

# the reference loop's time at reference speed, about its time on the
# machine where the baseline in writeup.json was recorded
REFERENCE_S = 1e-3
# timings on each side of a timing whose reference loops set its local speed
HALF_WINDOW = 4


def reference_loop() -> int:
    """A sparse product over integer dictionaries and a short sum of
    Fractions, like the library's polynomial and coefficient arithmetic,
    in about a millisecond."""
    a = {(i, i % 7): i * 3 + 1 for i in range(50)}
    b = {(i % 5, i): i - 2 for i in range(36)}
    out = {}
    for (k1, k2), x in a.items():
        for (l1, l2), y in b.items():
            key = (k1 + l1, k2 + l2)
            out[key] = out.get(key, 0) + x * y
    total = Fraction(0)
    for i in range(1, 80):
        total += Fraction(i, i + 7) * Fraction(2 * i + 1, 3)
    return len(out) + total.denominator


class SpeedMeter:
    """Reference-loop times, taken in pairs that bracket each timed piece
    of work; ``scaled`` turns the work's measured times into times at
    reference speed."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self):
        """The collector is off while the loop runs, so the loop's time
        does not depend on the heap the library leaves behind."""
        gc.disable()
        try:
            t0 = perf_counter()
            reference_loop()
            self.samples.append(perf_counter() - t0)
        finally:
            gc.enable()

    def scaled(self, times: list[float]) -> list[float]:
        """``times[i]`` was measured between samples 2i and 2i + 1; it is
        scaled by the mean of the samples bracketing timings i - HALF_WINDOW
        to i + HALF_WINDOW."""
        assert len(self.samples) == 2 * len(times)
        scaled = []
        for i, t in enumerate(times):
            window = self.samples[max(0, 2 * (i - HALF_WINDOW)) : 2 * (i + HALF_WINDOW + 1)]
            scaled.append(t * REFERENCE_S / statistics.fmean(window))
        return scaled

    def mean_s(self) -> float:
        return statistics.fmean(self.samples)

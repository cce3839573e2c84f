"""Times stated at a reference machine speed.

The benchmark runs on a few cores of a shared host whose speed drifts: a
fixed loop ran up to 1.5x slower for tens of seconds at a time, and
faster again within a second.  Raw wall times inherit that drift, so two
runs of the same code can differ by more than any useful bound.

So while a verdict runs, a timer interrupts it every ``PERIOD`` seconds
to time a fixed reference task, which calls no effectus code.  The
verdict's wall time, less the time spent in the reference task, is then
rescaled by ``REFERENCE_S`` over the reference task's trimmed mean time:
it reads as the seconds the verdict would take on a machine where the
reference task takes ``REFERENCE_S``.  A change to effectus moves the
verdict and not the reference, so it shows in full.
"""

from __future__ import annotations

import json
import signal
import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

PERIOD = 0.08
# A stretch shorter than a few ticks is topped up with reference samples
# taken right after it.
MIN_SAMPLES = 5
# The reference task's time on an idle core of the host the benchmark was
# tuned on (2-core Xeon VM, Python 3.11, numpy with OpenBLAS).
REFERENCE_S = 0.0025

_rng = np.random.default_rng(0)
_B = _rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4))
_DOC = {"reports": [{"instance": "x", "cases": i,
                     "witnesses": [[i, "a"], {"k": i / 3}]} for i in range(30)]}


def reference() -> None:
    """A fixed slice of the kinds of work a verdict does: hashing of
    frozensets and tuples, Fraction arithmetic, JSON, and small complex
    eigenproblems through numpy."""
    table = {}
    for i in range(1200):
        key = frozenset((i % 5, i % 7))
        table[key] = table.get(key, ()) + (i,)
    f = Fraction(0)
    for i in range(1, 40):
        f += Fraction(i, i % 37 + 1) * Fraction(3, 7)
    json.loads(json.dumps(_DOC, sort_keys=True))
    for _ in range(8):
        c = _B @ _B.conj().T
        w, u = np.linalg.eigh(c)
        np.allclose(c, (u * w) @ u.conj().T)


def trimmed_mean(samples) -> float:
    """Mean without the top and bottom tenth of the samples."""
    ordered = sorted(samples)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def rescale(seconds: float, samples) -> float:
    """`seconds` at the reference speed, given reference-task times
    measured over the same stretch."""
    return seconds * REFERENCE_S / trimmed_mean(samples)


class SpeedProbe:
    """While entered, times the reference task on every SIGALRM tick of
    an interval timer.  `samples` holds the task's times; `spent` is the
    wall time the ticks took from the code they interrupted."""

    def __init__(self, period: float = PERIOD):
        self.period = period
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        reference()
        t1 = perf_counter()
        self.samples.append(t1 - t0)
        self.spent += perf_counter() - t0

    def __enter__(self):
        self.samples, self.spent = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        while len(self.samples) < MIN_SAMPLES:
            t0 = perf_counter()
            reference()
            self.samples.append(perf_counter() - t0)
        return False

    def rescaled(self, wall: float) -> float:
        """The probed stretch's `wall` time, less the ticks, at the
        reference speed."""
        return rescale(wall - self.spent, self.samples)

"""The host's speed, sampled during a run, to put times on one scale.

A shared host changes how fast this process runs: on the 2-CPU container
the benchmark was built on, a fixed pure-Python job took from 1.0 to 1.9
times its fastest time, in stretches of a fraction of a second to several
minutes. The change hits the program and any other Python code alike, so
the benchmark times a fixed reference job, the gate's own Buchberger on a
fixed ideal, every `INTERVAL` seconds of an operation (from a SIGALRM
handler in the one thread) and divides each operation's time by the
reference time around it. `REF_S` turns the quotient back into seconds:
a time on this scale is the time the operation takes when the reference
takes `REF_S`, about its fastest time on that container. There, over a
minute in which the reference's median per eighth of the minute moved
from 1.9 to 3.6 ms, the median ratio of `dimension` at (3,3) to the
reference stayed between 13.2 and 13.6.

The reference is the benchmark's code and does not call the package, so a
change to the package does not move it; a change to `_buchberger` in
`workloads.py` or to `_IDEAL` rescales every time and needs a new
baseline.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction

from workloads import _buchberger, _quadric_monomials

INTERVAL = 0.05
REF_S = 0.002

clock = time.perf_counter


def _ideal():
    rng = random.Random(7)
    monos = _quadric_monomials(4)
    return [{e: Fraction(rng.choice((-1, 1))) for e in rng.sample(monos, 3)}
            for _ in range(3)]


_IDEAL = _ideal()


def _key(e):
    return sum(e), e


def _reference() -> None:
    _buchberger(_IDEAL, _key)


class SpeedProbe:
    """Reference times with the moment each was taken. `paused` is the
    time the samples taken by the timer have cost so far; an operation's
    time leaves it out."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self.paused = 0.0
        self._busy = False
        _reference()

    def sample(self) -> float:
        t0 = clock()
        _reference()
        took = clock() - t0
        self.at.append(t0)
        self.took.append(took)
        return took

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = clock()
        self.sample()
        self.paused += clock() - t0
        self._busy = False

    @contextmanager
    def sampling(self):
        """Sample every `INTERVAL` seconds inside the block, and once on
        entry and once on exit."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    def scaled(self, seconds: float, start: float, end: float) -> float:
        """`seconds`, spent between `start` and `end`, on the `REF_S`
        scale: divided by the mean reference time of the samples taken
        within one interval of that span, or of the nearest sample."""
        lo = bisect.bisect_left(self.at, start - INTERVAL)
        hi = bisect.bisect_right(self.at, end + INTERVAL)
        if lo == hi:
            lo, hi = (lo - 1, lo) if lo == len(self.at) else (lo, lo + 1)
        return seconds * REF_S / statistics.fmean(self.took[lo:hi])

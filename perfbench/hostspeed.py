"""How fast the host runs right now, from a fixed reference loop.

The benchmark's host is shared: its CPU speed flips between states about
1.5x apart for spells of seconds and drifts over minutes, and every kind
of work moves with it (process CPU time tracks wall time, so the CPU
itself runs slower).  A run of 40 s averages over the short spells but
not over the drift, so raw times of the same code spread by 10–25% across
runs.

The reference work uses nothing of fatou: a pure-Python integer loop and
a loop of numpy calls on 100-element complex arrays, the two kinds of
work fatou's kernels are made of.  Timed next to fatou's work, it tracks
the host's speed: over 40 s windows of a mixed fatou load, the raw time
spread by 20% and the time scaled by the reference work by 3%.  A time
is scaled to the reference speed, the speed at which the work takes
``NOMINAL_S``.

``Sampler`` times the work every ``INTERVAL_S`` while a block runs, from a
SIGALRM handler, so the samples fall inside fatou's long calls too, and
scales the block's own time piece by piece.  ``burst()`` is the median of
a few back-to-back timings, for a short block such as set-up.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

# median time of the reference work on the reference machine (2 vCPUs,
# Xeon 2.0 GHz, Python 3.11.7, numpy 2.4.6); any fixed value works, this
# one keeps scaled times close to the seconds a user of that machine sees
NOMINAL_S = 0.0040
INTERVAL_S = 0.25
BURST_REPEATS = 9

_PY_ITERS = 30_000
_NP_ITERS = 300
_NP_BASE = np.linspace(0.0, 1.0, 100) + 1j


def _work():
    s = 0
    for i in range(_PY_ITERS):
        s += i * i
    a = _NP_BASE.copy()
    for _ in range(_NP_ITERS):
        a = a * (0.999 + 0.001j) + 0.001
        np.abs(a)
    return s


def _timed_work():
    t0 = perf_counter()
    _work()
    return t0, perf_counter() - t0


def burst():
    """Seconds the reference work takes now: the median of ``BURST_REPEATS`` timings.

    The median keeps a timing that a short spike slowed from standing for
    the host's speed.
    """
    times = sorted(_timed_work()[1] for _ in range(BURST_REPEATS))
    return times[len(times) // 2]


def warm_up():
    """Run the work once untimed, so the first timing pays no first-call costs."""
    _work()


def scale(t, speed_s):
    """``t`` seconds, measured while the reference work took ``speed_s``, at the reference speed."""
    return t * NOMINAL_S / speed_s


class Sampler:
    """Times the reference work at the start, every ``INTERVAL_S`` and at the end of a block.

    ``measured_s`` is the block's time less the time spent in samples, and
    ``scaled_s`` the same time with each stretch between two samples
    scaled by the mean of those two samples.  The handler runs between
    Python bytecodes, so a sample waits for the numpy call in progress
    to return; fatou's calls into numpy last well under ``INTERVAL_S``.
    """

    def __init__(self):
        self.samples = []       # (start, duration)
        self.measured_s = self.scaled_s = 0.0
        self._active = False
        self._previous = None

    def _on_alarm(self, signum, frame):
        if self._active:
            self.samples.append(_timed_work())

    def __enter__(self):
        self.samples = [_timed_work()]
        self._active = True
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self._active = False
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(_timed_work())
        self.measured_s = self.scaled_s = 0.0
        for (s0, d0), (s1, d1) in zip(self.samples, self.samples[1:]):
            stretch = s1 - (s0 + d0)
            self.measured_s += stretch
            self.scaled_s += scale(stretch, 0.5 * (d0 + d1))
        return False

"""A clock that reads work time at a fixed reference speed of the machine.

The benchmark runs on a shared virtual machine whose speed changes by up
to a factor of two, both over minutes and from one second to the next,
with no steal time that a process inside can see; the process's CPU time
changes with it. So every time the benchmark reports is read from
a clock that scales wall time by the machine's speed at that moment.

``calibrate`` times a fixed piece of the program's two kinds of work,
written here and not taken from the program: a pure-Python loop that adds
float entries of a sparse matrix, held as a dictionary of dictionaries
keyed by file and test names, into a score per test; and a JSON round trip
of a small snapshot, which allocates as the program's folds and snapshots
do. While a ``Clock`` runs, a timer signal interrupts the process every
``PERIOD_S`` seconds to calibrate. The work time between two calibrations
counts at ``REFERENCE_S`` over the mean of their two times, and the
calibrations themselves do not count. A program that does the same work
reads the same whether the machine is fast or slow, and one that does less
work reads faster in proportion. ``REFERENCE_S`` is about what one calibration
took on the machine the reference figures in README.md come from, at its
fastest, so scaled times read as that machine's times at that speed.
"""

from __future__ import annotations

import json
import random
import signal
import time

REFERENCE_S = 0.0008
PERIOD_S = 0.025
_rng = random.Random(20190505)
_COLS = {
    f"src/f{i:04d}.c": {f"tests/t{_rng.randrange(1000):04d}": _rng.random() for _ in range(50)}
    for i in range(200)
}
_PICKS = [f"src/f{_rng.randrange(200):04d}.c" for _ in range(40)]
_SCORES = {f"tests/t{i:04d}": 0.0 for i in range(1000)}
_SNAPSHOT = {
    "tests": {f"tests/t{i:04d}": [f"src/f{j:04d}.c" for j in range(i % 5)] for i in range(60)},
    "cols": {f"src/f{i:04d}.c": {f"tests/t{j:04d}": j * 0.1 + i for j in range(10)}
             for i in range(25)},
}


def calibrate(loops=3):
    """Seconds one calibration takes now: ``loops`` passes of the matrix
    loop and one JSON round trip."""
    cols, picks, scores, perf = _COLS, _PICKS, _SCORES, time.perf_counter
    t0 = perf()
    for _ in range(loops):
        for f in picks:
            for t, v in cols[f].items():
                scores[t] = scores[t] * 0.5 + v
    json.loads(json.dumps(_SNAPSHOT))
    return perf() - t0


class Clock:
    """Used as a context manager around the timed part of a run; ``now()``
    is the scaled work time since it was entered."""

    def __init__(self):
        self.calibrations = []

    def __enter__(self):
        self.scaled = 0.0
        self.calibrations.append(calibrate())
        self.mark = time.perf_counter()
        self.old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self.old)

    def _tick(self, signum, frame):
        work = time.perf_counter() - self.mark
        took = calibrate()
        self.scaled += work * REFERENCE_S / ((self.calibrations[-1] + took) / 2)
        self.calibrations.append(took)
        self.mark = time.perf_counter()

    def now(self):
        while True:  # read again if a tick came in while reading
            ticks = len(self.calibrations)
            value = (self.scaled + (time.perf_counter() - self.mark)
                     * REFERENCE_S / self.calibrations[-1])
            if ticks == len(self.calibrations):
                return value

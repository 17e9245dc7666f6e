"""Machine-speed calibration for timing on a shared machine.

A shared sandbox changes speed by tens of percent within seconds and drifts
over minutes, and the changes move pure-Python code and bipotkit alike. The
benchmark therefore times a fixed calibration loop (Python arithmetic and
small numpy calls, the mix bipotkit runs) throughout each run, and rescales
its times by ``factor``: reference seconds per round over the run's mean.
The rescaled times stay in seconds, at the speed of the reference machine.

While a :class:`Speed` is active, SIGALRM runs a short round of the loop
every ``INTERVAL_S`` of wall time, so long jobs are sampled too; the time
those ticks take is kept in ``spent`` for the caller to subtract from the
job it interrupted.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Seconds per round on the reference machine: the 2-core Xeon sandbox,
# Python 3.11.7 and numpy 2.4.6, on which the baseline was recorded.
REF_S_PER_ROUND = 5e-6
INTERVAL_S = 0.1
TICK_ROUNDS = 300


def seconds_per_round(rounds):
    a = np.arange(3.0)
    s = 0.0
    t0 = time.perf_counter()
    for i in range(rounds):
        v = np.asarray(a, dtype=np.float64)
        if v.ndim != 1 or not np.all(np.isfinite(v)):
            raise ValueError("calibration vector changed")
        s += v[0] * v[1] + i * 0.5
    return (time.perf_counter() - t0) / rounds


class Speed:
    def __init__(self):
        self.samples = []      # seconds per round
        self.spent = 0.0       # seconds spent in timer ticks

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(seconds_per_round(TICK_ROUNDS))
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @property
    def factor(self):
        """Multiply a time measured in this run by this to rescale it."""
        return REF_S_PER_ROUND / statistics.mean(self.samples)

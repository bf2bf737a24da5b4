"""How fast the host runs, from a fixed reference loop, to scale host times.

The benchmark runs on shared machines whose speed changes by up to about 2x
every few seconds, with every program on them.  `probe()` times a fixed
piece of work that uses no code of the package: small numpy array updates
mixed with Python arithmetic and dict stores, as the simulator's step loop
does.  `scale(probes)` turns the probes taken over an interval into the
factor from host seconds of that interval to reference seconds: seconds at
the speed at which one probe takes `REFERENCE_S`.  A change to the package
cannot move the probe.  The probe's code and `REFERENCE_S` must never
change, or every scaled figure moves with them.

`Sampler` probes every `PERIOD` seconds while an operation runs, from a
SIGALRM handler, so that probes cover the operation's whole length.  Its
`clock()` is host time minus the time spent probing, so operations timed on
it do not count the probes.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

# One probe's time at the speed figures are scaled to: a fixed unit.  On a
# shared 2-vCPU Intel Xeon VM (Python 3.11, numpy 2.4) a probe took about
# 2.1 ms in the host's fast state and 3.6 ms in its slow one.
REFERENCE_S = 0.0025
ITERATIONS = 100
PERIOD = 0.1   # seconds between probes while a Sampler runs

_A = np.array([[1.0, 0.01], [0.0, 1.0]])
_B = np.array([0.0, 0.01])
_ONES = np.ones(2)


def reference_work() -> float:
    x = np.zeros(2)
    total = 0.0
    seen = {}
    for i in range(ITERATIONS):
        x = _A @ x + _B * math.sin(i * 0.01)
        u = np.clip(np.kron(_ONES, x), -1.0, 1.0)
        total += float(u.sum()) + math.hypot(x[0], x[1])
        seen[i % 17] = [total, i]
    return total


def probe() -> float:
    """Host seconds of one pass of the reference work."""
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def scale(probes: list[float]) -> float:
    """Reference seconds per host second while `probes` were taken.

    The mean of the probes' speeds: probes evenly spaced in time weigh each
    moment of an interval alike, and work done is speed times time.
    """
    return REFERENCE_S * statistics.fmean(1.0 / p for p in probes)


class Sampler:
    """Probes on a timer during `sampling()` blocks, inside a `with` block."""

    def __init__(self, period: float = PERIOD):
        self.period = period
        self.probes: list[float] = []
        self.spent = 0.0          # host seconds spent inside the handler
        self._previous = None

    def _handle(self, signum, frame):
        start = time.perf_counter()
        self.probes.append(probe())
        self.spent += time.perf_counter() - start

    def clock(self) -> float:
        """Host seconds, less the time spent probing."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:   # no probe ran between the two reads
                return now - spent

    @contextmanager
    def sampling(self):
        """Probe every `period` seconds in the block; yields the probe list."""
        self.probes = []
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        try:
            yield self.probes
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handle)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

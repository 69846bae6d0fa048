"""Host speed probe: turns measured seconds into seconds at a fixed speed.

The benchmark runs on a few virtual cores of a shared host whose speed
drifts: identical pure-Python work takes 1.5-3x longer in some seconds than
in others, and medians over a minute move by 20% and more between runs.  A
benchmark that times the program alone measures that drift as much as the
program.

``SpeedProbe`` samples the host's speed from inside the measuring process.
A timer signal fires every ``INTERVAL_S``; its handler runs ``reference()``,
a fixed piece of work of both kinds the program does (exact arithmetic in
Python, and int64 products and einsum pairings in numpy), and records when
it ran and how long it took.  The handler runs in the main thread between
bytecodes, so the load stays one client on one thread, and nothing runs
beside a native call that has released the interpreter lock.

For an operation timed from ``start`` to ``end``:

- ``busy(start, end)`` is the probe time spent inside it, which the caller
  subtracts, so the program is charged only for its own work;
- ``speed(start, end)`` is the mean duration of the probes within
  ``WINDOW_S`` of the operation, divided by ``REFERENCE_S``: 1.0 at the
  host's usual speed, 1.5 when the same work takes half as long again.

The benchmark reports time divided by that factor: seconds at the usual speed
of the host described in README.md.  A change that makes the program faster
lowers the figure by the same share, while a slower second of the host raises
both the operation and the probes around it and cancels out.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from array import array
from fractions import Fraction

import numpy as np

INTERVAL_S = 0.025
WINDOW_S = 0.25
# the usual time of one reference() call in the probe while the benchmark's
# workloads run on the host described in README.md; a fixed scale, never
# re-measured, so that figures stay comparable between commits
REFERENCE_S = 0.0007

_MATRIX = np.arange(48 * 48, dtype=np.int64).reshape(48, 48) % 7 - 3
_STACK = np.arange(16 * 24 * 24, dtype=np.int64).reshape(16, 24, 24) % 5 - 2


def reference() -> Fraction:
    """A fixed piece of work, about 0.7 ms in the probe: Fraction sums of
    products, an int64 matrix product and an einsum trace pairing."""
    acc = Fraction(0)
    row = [Fraction(k, k + 3) for k in range(1, 7)]
    for a in row:
        for b in row:
            acc += a * b - Fraction(1, 7)
    product = _MATRIX @ _MATRIX
    pairing = np.einsum("aij,bji->ab", _STACK, _STACK)
    return acc + int(product[0, 0]) + int(pairing[0, 0])


class SpeedProbe:
    """Samples the host's speed on a timer signal between ``start`` and
    ``stop``; only one probe may run in a process at a time."""

    def __init__(self) -> None:
        self.times = array("d")
        self.durations = array("d")
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t = time.perf_counter()
        reference()
        self.durations.append(time.perf_counter() - t)
        self.times.append(t)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def __enter__(self) -> SpeedProbe:
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def busy(self, start: float, end: float) -> float:
        """Seconds the probe itself ran between start and end."""
        i = bisect.bisect_left(self.times, start)
        j = bisect.bisect_left(self.times, end)
        return sum(self.durations[i:j])

    def speed(self, start: float, end: float) -> float:
        """Host slowness around [start, end], 1.0 at REFERENCE_S."""
        i = bisect.bisect_left(self.times, start - WINDOW_S)
        j = bisect.bisect_right(self.times, end + WINDOW_S)
        if i == j:
            raise RuntimeError("no speed sample near the operation; the probe was not running")
        return statistics.fmean(self.durations[i:j]) / REFERENCE_S

"""Times rescaled to a reference host speed.

On a shared virtual machine the same code runs at two speeds, about
1.8x apart, switching every fraction of a second to a few seconds as
other tenants come and go.  A raw wall time then depends more on when it
was taken than on the code.  `SpeedProbe` runs a fixed pure-Python
reference loop right before and right after each timed call and, from a
timer signal, every PERIOD_S during it.  The call's wall time, minus the
time spent in those loops, is divided by their mean duration and
multiplied by REFERENCE_S: the result is the call's time at the speed
where the reference loop takes REFERENCE_S.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.025
# the loop's duration at the faster speed of a 2-vCPU Xeon VM
REFERENCE_S = 0.00065


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def _step(p, q):
    return _Cell(p.a + q.b, p.b)


def _reference_loop():
    # calls, attribute reads, small allocations and dict updates: of the
    # loops tried, the mix whose speed swings track the checker's best
    cell = _Cell(1, 2)
    table = {}
    for i in range(450):
        cell = _step(cell, _Cell(i, i))
        if cell.a > 1000:
            cell = _Cell(0, cell.b)
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + 1
    return cell, table


class SpeedProbe:
    """Context manager: while active, `time` rescales calls."""

    def __init__(self):
        self.loops = []  # duration of every reference loop run
        self.spent = 0.0  # total time spent in them
        self._busy = False
        self._previous = None

    def _tick(self, *_):
        if self._busy:  # a signal landed inside a loop
            return
        self._busy = True
        start = time.perf_counter()
        _reference_loop()
        took = time.perf_counter() - start
        self.loops.append(took)
        self.spent += took
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def time(self, call):
        """Run `call()`; returns (its result, seconds at reference speed)."""
        self._tick()
        first = len(self.loops) - 1
        spent = self.spent
        start = time.perf_counter()
        result = call()
        elapsed = time.perf_counter() - start - (self.spent - spent)
        self._tick()
        loops = self.loops[first:]
        return result, elapsed * REFERENCE_S * len(loops) / sum(loops)


class WallClock:
    """Same interface as SpeedProbe, plain wall time: for traced runs,
    where the probe's timer signal would land inside the spans."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    def time(self, call):
        start = time.perf_counter()
        result = call()
        return result, time.perf_counter() - start

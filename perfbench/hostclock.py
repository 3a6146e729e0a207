"""Wall time rescaled to a reference host speed.

The benchmark host is shared: the speed of a fixed piece of pure-Python
work drifts by 20 % and more over seconds to minutes, and run-to-run
medians follow it.  A :class:`Clock` therefore times a fixed piece of
calibration work (a slice, below) on the same thread as the measured
work, before it starts, every :data:`TICK_GAP_S` or so while it runs,
and when it stops.  Each stretch of work between two slices is
rescaled by ``REFERENCE_SLICE_S / (mean of the two slices' times)``:
the seconds the stretch would have taken on the reference host, at the
speed the host had just then.  Slice time is excluded from both the raw
and the rescaled time.

Slices can only run between calls, so the measured work is punctuated
by :meth:`Calibration.tick`: the benchmark wraps a few public functions
of the program (see ``tracer.TICK_TARGETS``) so that every entry and
exit ticks the running clock, which takes a slice when the last one is
:data:`TICK_GAP_S` old.  Nothing inside ``src/`` changes.

A slice runs two loops and its time is the geometric mean of theirs:
a tight arithmetic loop, which slows down more than the simulator when
the host is busy, and a random walk over 64k small objects, which slows
down less.  ``README.md`` ("Host-speed normalisation") gives how the
pair was chosen and how closely it tracks the simulator.
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple

#: Iterations of the two loops of one slice (about 20 ms each).
ARITHMETIC_ITERATIONS = 40_000
WALK_ITERATIONS = 28_000
#: Median slice time on the reference host (2 vCPUs of an
#: ``Intel(R) Xeon(R) Processor``, CPython 3.11.7), in seconds: the
#: geometric mean of the loops' medians, 20.41 and 18.90 ms.
REFERENCE_SLICE_S = 0.01964
#: Least time between two slices of a running clock.
TICK_GAP_S = 0.4


def _arithmetic_loop(iterations: int) -> int:
    table = {}
    total = 0
    for i in range(iterations):
        total += (i * 7) ^ (total >> 3)
        table[i & 1023] = total
    return total


class _Cell:
    __slots__ = ("value", "link")

    def __init__(self, index: int) -> None:
        self.value = index
        self.link = (index * 7919) % 65536

    def step(self, x: int) -> int:
        return (self.value + x) & 0xFFFF


def _walk_loop(cells: List[_Cell], iterations: int) -> int:
    index = 1
    total = 0
    for _ in range(iterations):
        cell = cells[index]
        total = cell.step(total)
        cell.value = total
        index = (cell.link + total) & 0xFFFF
    return total


class Calibration:
    """Calibration slices, and the calibrated clock that is running.

    One per process: it holds the object walk's working set, and its
    :meth:`tick` serves whichever of its clocks is running.
    """

    def __init__(self) -> None:
        self._cells = [_Cell(index) for index in range(65536)]
        #: The calibrated clock between its start and stop, if any.
        self.running: Optional["Clock"] = None
        self.slice_time()  # warm both loops

    def slice_time(self) -> float:
        """Time one slice: the geometric mean of its two loops' times."""
        started = time.perf_counter()
        _arithmetic_loop(ARITHMETIC_ITERATIONS)
        middle = time.perf_counter()
        _walk_loop(self._cells, WALK_ITERATIONS)
        ended = time.perf_counter()
        return ((middle - started) * (ended - middle)) ** 0.5

    def tick(self) -> None:
        """Let the running clock take a slice if one is due."""
        if self.running is not None:
            self.running.tick()

    def measure(self, body) -> Tuple[object, float, float]:
        """Run ``body()`` under a calibrated clock.

        Returns ``(result, raw_s, reference_s)``.
        """
        clock = Clock(self).start()
        try:
            result = body()
        finally:
            raw_s, reference_s = clock.stop()
        return result, raw_s, reference_s


class Clock:
    """A stopwatch that reports raw and reference-speed seconds.

    A clock without a calibration takes no slices; its reference-speed
    time is its raw time.
    """

    def __init__(self, calibration: Optional[Calibration]) -> None:
        self.calibration = calibration
        self.raw_s = 0.0
        self.reference_s = 0.0
        self._start = 0.0
        self._slice = 0.0

    def start(self) -> "Clock":
        if self.calibration is not None:
            self._slice = self.calibration.slice_time()
            self.calibration.running = self
        self._start = time.perf_counter()
        return self

    def tick(self) -> None:
        if time.perf_counter() - self._start >= TICK_GAP_S:
            self._close_stretch()

    def stop(self) -> Tuple[float, float]:
        """End the measurement; return ``(raw_s, reference_s)``."""
        if self.calibration is None:
            self.raw_s = time.perf_counter() - self._start
            self.reference_s = self.raw_s
            return self.raw_s, self.reference_s
        self._close_stretch()
        self.calibration.running = None
        return self.raw_s, self.reference_s

    def _close_stretch(self) -> None:
        stretch = time.perf_counter() - self._start
        after = self.calibration.slice_time()
        self.raw_s += stretch
        self.reference_s += (
            stretch * REFERENCE_SLICE_S / ((self._slice + after) / 2.0)
        )
        self._slice = after
        self._start = time.perf_counter()

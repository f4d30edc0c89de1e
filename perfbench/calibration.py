"""Host-speed calibration: a fixed loop timed around every timed segment."""

from __future__ import annotations

import time

#: Seconds the calibration loop takes on the reference host (a
#: 2.1 GHz x86-64 vCPU running CPython 3.11).  Host times are reported
#: scaled to that speed; see :class:`Calibration`.
CALIBRATION_REF_S = 0.020
#: How set-up time follows the calibration loop's speed (see there).
SETUP_ELASTICITY = 0.5


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value

    def plus(self, other: int) -> int:
        return self.value + other


class Calibration:
    """A fixed pure-Python loop that measures the host's current speed.

    The shared 2-vCPU host this benchmark was written on drifts in
    speed by up to a third, per vCPU and within seconds.  The loop does
    the kinds of work the simulator does: method calls on small
    objects, dict lookups and bytearray slices, with random access over
    a working set of about 10 MiB.  It is timed on the same pinned CPU
    as the rounds: before each set-up, and around the segments of each
    measured phase (see :class:`Stopwatch`).  Set-up is mostly
    zero-filling simulated memory in C, which follows the loop's speed
    less closely (a fitted elasticity of 0.5), so set-up time is scaled
    by the square root of ``CALIBRATION_REF_S`` over the loop time
    before it.  On that host this cut the spread of per-run medians
    over ten seeds from 15-30% to 2-7%.  The loop is part of the
    benchmark: no change to the simulator can move it.
    """

    SIZE = 1 << 16
    STEPS = 15_000

    def __init__(self) -> None:
        self.cells = [_Cell(index, index & 255) for index in range(self.SIZE)]
        self.table = {(index * 2654435761) & 0xFFFFFFFF: cell for index, cell in enumerate(self.cells)}
        self.keys = list(self.table)
        self.buffer = bytearray(1 << 16)

    def time(self) -> float:
        """Host seconds for one pass of the loop."""
        mask = self.SIZE - 1
        cells, table, keys, buffer = self.cells, self.table, self.keys, self.buffer
        start = time.perf_counter()
        total = 0
        state = 12345
        for step in range(self.STEPS):
            state = (state * 1103515245 + 12345) & mask
            total += cells[state].plus(step)
            other = table.get(keys[(state * 7) & mask])
            if other is not None:
                total ^= other.value
            offset = (state * 64) & 0xFFFF
            buffer[offset] = step & 255
            total += len(bytes(buffer[offset : offset + 48]))
        return time.perf_counter() - start


class Stopwatch:
    """Times a measured phase in segments, timing the loop between them.

    ``start()`` times the calibration loop and starts the first segment.
    A workload calls ``lap()`` between independent parts of its phase;
    that ends the segment, times the loop, and starts the next one.
    ``stop()`` ends the last segment and times the loop once more.  The
    loop's own time is never counted, and a profile given here is off
    while it runs.  Each segment's host time is scaled by
    ``CALIBRATION_REF_S`` over the mean of the loop times on its two
    sides, so a long phase follows the host's drift within it.
    """

    def __init__(self, calibration: Calibration, profile=None) -> None:
        self.calibration = calibration
        self.profile = profile
        self.segments: list[float] = []
        self.loops: list[float] = []
        self._start = 0.0

    def start(self) -> None:
        self.loops.append(self.calibration.time())
        self._resume()

    def _resume(self) -> None:
        if self.profile:
            self.profile.enable()
        self._start = time.perf_counter()

    def lap(self) -> None:
        self.stop()
        self._resume()

    def stop(self) -> None:
        self.segments.append(time.perf_counter() - self._start)
        if self.profile:
            self.profile.disable()
        self.loops.append(self.calibration.time())

    @property
    def host_s(self) -> float:
        """Unscaled host seconds of all segments."""
        return sum(self.segments)

    @property
    def ref_s(self) -> float:
        """Host seconds of all segments, scaled to the reference host."""
        return sum(
            segment * CALIBRATION_REF_S / ((before + after) / 2)
            for segment, before, after in zip(self.segments, self.loops, self.loops[1:])
        )

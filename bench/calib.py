"""Host-speed calibration and the calibrated task timer.

On a shared host the speed of the CPU moves from one second to the next,
so the same work takes a different wall time in each run.  Every timed
interval is therefore bracketed by a fixed calibration loop, and a time
is reported as

    calibrated = raw * (NOMINAL_S / measured loop time)

which keeps its unit.  The loop is pure Python, imports nothing from the
program under test and runs with the garbage collector paused, so the
program's heap is never charged to it.  At import this module loads
only gc, math, time and array, so that a set-up probe can time the
program's own imports.
"""

from __future__ import annotations

import gc
import math
import time
from array import array

#: Iterations of one calibration loop (about 2 ms on the reference host).
LOOP_ITERS = 2500
#: Loops per calibration point; the point is their median.
LOOP_REPS = 3
#: Median loop time on the reference host (see README.md).  A constant:
#: calibrated times from different runs are comparable because of it.
NOMINAL_S = 0.0021
#: Median wall time of measure_process on the reference host.
NOMINAL_PROCESS_S = 0.028
#: A calibration point older than this no longer counts as adjacent.
STALE_S = 0.05


def _step(a: int, b: int) -> int:
    return math.gcd(a * 7919, b * 104729) + ((a * b) >> 5)


def loop(n: int = LOOP_ITERS) -> int:
    """Integer arithmetic, calls, tuple allocation and dict stores."""
    acc = 0
    table = {}
    for i in range(n):
        pair = (i + 1, i * 31 + 7)
        acc += _step(pair[0], pair[1]) % 1_000_003
        table[i & 127] = pair
    return acc


def measure() -> float:
    """One calibration point: the median of LOOP_REPS timed loops."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(LOOP_REPS):
            start = time.perf_counter()
            loop()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return sorted(times)[len(times) // 2]


def measure_process() -> float:
    """One calibration point for tasks that are whole processes: the wall
    time of a fresh interpreter (without site) that runs measure().  It
    pays the same process start-up as the task it brackets."""
    import subprocess
    import sys

    start = time.perf_counter()
    subprocess.run([sys.executable, "-S", __file__], check=True)
    return time.perf_counter() - start


#: The two kinds of calibration point, with their nominal times.
PROBES = {"loop": (measure, NOMINAL_S), "process": (measure_process, NOMINAL_PROCESS_S)}


def factor(before: float, after: float, nominal: float = NOMINAL_S) -> float:
    """Scale for an interval bracketed by two calibration points."""
    return nominal / ((before + after) / 2)


class Meter:
    """Times tasks in batches of about ``batch_s`` seconds.

    A calibration point is taken when the meter opens and after every
    batch, so each batch lies between two points and is scaled by their
    mean.  Adjacent batches share the point between them.
    """

    def __init__(self, batch_s: float, kind: str = "loop"):
        self.batch_s = batch_s
        self.probe, self.nominal = PROBES[kind]
        self.raw = array("d")         # seconds per task, as measured
        self.calibrated = array("d")  # seconds per task, host-corrected
        self.points = []       # every calibration point taken
        self._pending = []
        self._pending_s = 0.0
        self._edge = None
        self._edge_at = 0.0

    def open(self) -> None:
        """Start timing: take a leading calibration point, unless the last
        one was taken less than STALE_S ago (no untimed work since)."""
        if self._edge is not None and time.perf_counter() - self._edge_at < STALE_S:
            return
        self._edge = self.probe()
        self._edge_at = time.perf_counter()
        self.points.append(self._edge)

    def time(self, fn, arg):
        """Run fn(arg) timed; returns (output, error).  Closes full batches."""
        error = None
        output = None
        start = time.perf_counter()
        try:
            output = fn(arg)
        except Exception as exc:  # a failed operation is counted, not fatal
            error = exc
        elapsed = time.perf_counter() - start
        self._pending.append(elapsed)
        self._pending_s += elapsed
        if self._pending_s >= self.batch_s:
            self.close()
        return output, error

    def close(self) -> None:
        """End the current batch with a trailing calibration point."""
        if not self._pending:
            return
        after = self.probe()
        self.points.append(after)
        scale = factor(self._edge, after, self.nominal)
        self.raw.extend(self._pending)
        self.calibrated.extend(d * scale for d in self._pending)
        self._pending = []
        self._pending_s = 0.0
        self._edge = after
        self._edge_at = time.perf_counter()


if __name__ == "__main__":
    measure()

"""Host-speed monitor that the end-to-end timings are scaled by.

On a shared virtual machine the CPU speed drifts by up to 1.5x, within
seconds and over minutes, and every sample of a run can land in a slow
stretch.  A fixed pure-Python kernel, timed every INTERVAL_S in a thread of
run.py (otherwise idle while it waits for a sample), slows down with the
sample running beside it: over half-second windows on a 2-core Xeon VM this
cut the variation of flatkit's time per unit of work from 20% to 7.5% on
the per-origami path and from 14% to 4.5% on the numpy enumerator.

`Monitor.factor(start, end)` is NOMINAL_S / (kernel time), averaged over the
probes in that stretch of the monotonic clock (at least WINDOW_S long).  A
timing multiplied by it reads as seconds on a host where the kernel takes
NOMINAL_S.  The kernel does not touch flatkit and runs in another process,
so a change to flatkit cannot move it.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import threading
import time
from fractions import Fraction

NOMINAL_S = 5.0e-4  # about the kernel's time on a 2-core Xeon VM at its faster speed
INTERVAL_S = 0.1
WINDOW_S = 0.5  # shortest stretch averaged over, so that one noisy probe weighs little
REPEATS = 5


def _kernel() -> int:
    """Fraction sums, tuple keys and dict updates, like flatkit's own loops."""
    total = Fraction(0)
    table: dict[tuple[int, int], int] = {}
    for i in range(1, 250):
        total += Fraction(i, i + 3)
        table[(i, i % 7)] = total.denominator % 1000
    return len(table)


def probe() -> float:
    """NOMINAL_S over the kernel's median time now; garbage collection off."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        _kernel()  # warm: the first run in a fresh process is slower
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return NOMINAL_S / statistics.median(times)


class Monitor:
    """Probes in a background thread while the `with` block runs."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.factors: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self) -> "Monitor":
        self._probe()  # so that even the first, shortest stretch has one
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _probe(self) -> None:
        t0 = time.monotonic()
        factor = probe()
        self.factors.append(factor)  # first: a reader indexes factors by times
        self.times.append((t0 + time.monotonic()) / 2)

    def _loop(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            self._probe()

    def factor(self, start: float, end: float) -> float:
        """Mean factor of the probes in [start, end], widened to WINDOW_S
        about its middle, else of the nearest probe."""
        middle = (start + end) / 2
        start, end = min(start, middle - WINDOW_S / 2), max(end, middle + WINDOW_S / 2)
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if hi > lo:
            return statistics.fmean(self.factors[lo:hi])
        nearest = min(
            (i for i in (lo - 1, lo) if 0 <= i < len(self.times)),
            key=lambda i: abs(self.times[i] - middle),
        )
        return self.factors[nearest]

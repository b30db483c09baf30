"""Host speed probe: CPU-bound host seconds rescaled to a reference speed.

A shared host's CPU speed drifts over tens of seconds: on the 2-vCPU
container this benchmark was built on, one `sched_synth` pass over the
same inputs took anywhere from 3.1 s to 5.3 s within a few minutes.  A
daemon thread times a fixed interpreter kernel every few milliseconds
while the program runs; a timed interval is then rescaled by how fast
the kernel ran meanwhile:

    reference_s = raw_s * KERNEL_REF_S / median(kernel seconds during the interval)

On that host this halved the spread of repeated passes over one input.
The kernel runs in the measured process, so it also feels the program's
own cache footprint; the raw seconds are printed next to the rescaled
ones.  Work bound by the wall clock (a real-mode run with a fixed
budget) is not rescaled.
"""
from __future__ import annotations

import bisect
import contextlib
import statistics
import threading
import time
from fractions import Fraction

# Median kernel time while sampling on the host above (CPython 3.11).
# Only the ratio matters; it keeps reference seconds near raw seconds.
KERNEL_REF_S = 900e-6
PERIOD_S = 0.025
MIN_SAMPLES = 5


def kernel() -> int:
    """Integer, dict, tuple, sort and Fraction work: the program's staples."""
    acc = 0
    table = {}
    items = []
    for i in range(200):
        acc = (acc * 31 + i) & 0xFFFF
        table[acc & 127] = i
        items.append((acc, i))
    items.sort()
    weights = [Fraction(p, 64) * d for p, d in zip(range(3, 40), range(1, 38))]
    level = Fraction(50) / sum(weights)
    shares = sorted((level * w - int(level * w), i) for i, w in enumerate(weights))
    return acc + len(table) + len(shares)


class SpeedProbe:
    """Samples the kernel's cost from a daemon thread while entered."""

    def __init__(self) -> None:
        self.ends: list[float] = []       # sample end times, ascending
        self.costs: list[float] = []      # kernel seconds per sample
        self._stop = threading.Event()
        self._sampling = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-probe",
                                        daemon=True)

    def _loop(self) -> None:
        clock = time.perf_counter
        while not self._stop.wait(PERIOD_S):
            if self._sampling.is_set():
                t0 = clock()
                kernel()
                t1 = clock()
                self.costs.append(t1 - t0)
                self.ends.append(t1)

    def __enter__(self) -> "SpeedProbe":
        self._sampling.set()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    @contextlib.contextmanager
    def paused(self):
        """No samples inside the block: its run owns the wall clock."""
        self._sampling.clear()
        try:
            yield
        finally:
            self._sampling.set()

    def reference_s(self, start: float, end: float) -> float:
        """Seconds [start, end] would have taken at the reference speed."""
        lo = bisect.bisect_left(self.ends, start)
        hi = bisect.bisect_right(self.ends, end)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.ends)):
            lo, hi = max(0, lo - 1), min(len(self.ends), hi + 1)
        if lo == hi:
            raise RuntimeError("speed probe took no samples")
        return (end - start) * KERNEL_REF_S / statistics.median(self.costs[lo:hi])

"""Benchmark metrics: PAR-2, speedups, and a sequential best-case baseline."""
from __future__ import annotations

from statistics import median
from typing import Iterable, Optional, Sequence


def par2(results: Iterable[tuple[bool, float]], limit_s: float) -> float:
    """Mean runtime with unsolved instances charged twice the limit.

    results is (solved, runtime_s) per instance.
    """
    items = list(results)
    if not items:
        raise ValueError("par2 of an empty result set")
    total = 0.0
    for solved, runtime in items:
        total += runtime if solved else 2.0 * limit_s
    return total / len(items)


def speedups(pairs: Iterable[tuple[float, float]], cores: Optional[int] = None,
             hard_only: bool = False) -> dict:
    """Total and median speedup of parallel over sequential runtimes.

    pairs is (seq_s, par_s) per instance solved by both sides.  With
    hard_only, instances whose sequential time is below `cores` seconds
    are dropped first (easy inputs cannot use that much hardware).
    """
    items = [(s, p) for s, p in pairs if p > 0 and s > 0]
    if hard_only:
        if cores is None:
            raise ValueError("hard_only needs cores")
        items = [(s, p) for s, p in items if s >= cores]
    if not items:
        return {"n": 0, "total": None, "median": None}
    total = sum(s for s, _ in items) / sum(p for _, p in items)
    med = median(s / p for s, p in items)
    return {"n": len(items), "total": total, "median": med}


def hos_baseline(entries: Iterable[tuple[int, Optional[float], float]],
                 limit_s: float) -> dict[int, float]:
    """Response times of an idealized one-at-a-time scheduler.

    entries is (job, runtime_s or None if unsolved, arrival_s).  Jobs run
    back to back in ascending runtime order (arrival, then id, break
    ties); unsolved jobs are charged the limit.  Shortest-first is the
    optimal order for mean response on a single resource, which makes the
    returned times a lower-bound reference for scheduler quality.  A job id
    given twice raises ValueError.
    """
    items = []
    seen = set()
    for job, runtime, arrival in entries:
        if job in seen:
            raise ValueError(f"job id {job} is given twice")
        seen.add(job)
        eff = limit_s if runtime is None else runtime
        items.append((eff, arrival, job))
    items.sort()
    clock = 0.0
    out: dict[int, float] = {}
    for eff, _arrival, job in items:
        clock += eff
        out[job] = clock
    return out

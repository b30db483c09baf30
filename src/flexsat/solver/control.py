"""Cooperative preemption cell shared between a solver and its owner."""
from __future__ import annotations

from typing import Optional

RUNNING = "RUNNING"
SUSPENDED = "SUSPENDED"
TERMINATED = "TERMINATED"

_VALID = {
    (RUNNING, SUSPENDED),
    (SUSPENDED, RUNNING),
    (RUNNING, TERMINATED),
    (SUSPENDED, TERMINATED),
}


class SolverControl:
    """Single mutable state cell polled by the solver at safe points.

    The owner flips the state; the solver observes it at conflict/flip
    boundaries and returns from step() once it leaves RUNNING.  `state` is
    a plain attribute for a cheap poll; only _move writes it.
    """

    def __init__(self) -> None:
        self.state = RUNNING

    def _move(self, new: str) -> None:
        if self.state == new:
            return
        if (self.state, new) not in _VALID:
            raise ValueError(f"bad transition {self.state} -> {new}")
        self.state = new

    def suspend(self) -> None:
        self._move(SUSPENDED)

    def resume(self) -> None:
        self._move(RUNNING)

    def terminate(self) -> None:
        self._move(TERMINATED)


def drive(solver, chunk: int, max_work: Optional[int] = None) -> Optional[str]:
    """Step a solver in chunks until it answers; the one blocking drive loop.

    Returns the verdict, or None once the solver's control cell leaves
    RUNNING, the solver is blocked (it can never answer), or max_work
    units (conflicts or flips) have been stepped without an answer.
    """
    if solver.blocked:
        return None
    control = solver.control
    done = 0
    while max_work is None or done < max_work:
        if control is not None and control.state != RUNNING:
            return None
        n = chunk if max_work is None else min(chunk, max_work - done)
        verdict = solver.step(n)
        if verdict is not None:
            return verdict
        done += n
    return None

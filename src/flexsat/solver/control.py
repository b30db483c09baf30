"""Cooperative preemption cell shared between a solver and its owner."""
from __future__ import annotations

import threading
from typing import Callable, Optional

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
    boundaries.  In threaded mode a suspended solver parks on an event and
    burns no CPU beyond the poll; terminate() wakes it for a final exit.
    `state` is a plain attribute for a cheap poll; only _move writes it.
    """

    def __init__(self) -> None:
        self.state = RUNNING
        self._wake = threading.Event()
        self._wake.set()
        self.parked = False

    def _move(self, new: str) -> None:
        if self.state == new:
            return
        if (self.state, new) not in _VALID:
            raise ValueError(f"bad transition {self.state} -> {new}")
        self.state = new

    def suspend(self) -> None:
        self._move(SUSPENDED)
        self._wake.clear()

    def resume(self) -> None:
        self._move(RUNNING)
        self._wake.set()

    def terminate(self) -> None:
        self._move(TERMINATED)
        self._wake.set()

    def park_while_suspended(self) -> None:
        """Called from the solver thread; blocks until resumed or terminated."""
        while self.state == SUSPENDED:
            self.parked = True
            self._wake.wait(timeout=1.0)
        self.parked = False


def drive(solver, chunk: int, before_chunk: Optional[Callable[[], None]] = None,
          max_work: Optional[int] = None) -> Optional[str]:
    """Step a solver in chunks until it answers; the one blocking drive loop.

    Parks while the solver's control cell is suspended.  Returns the
    verdict, or None once the control is terminated, the solver is
    blocked (it can never answer), or max_work units (conflicts or flips)
    have been stepped without an answer.  before_chunk runs ahead of every
    step.
    """
    if solver.blocked:
        return None
    control = solver.control
    done = 0
    while max_work is None or done < max_work:
        if control is not None:
            if control.state == TERMINATED:
                return None
            if control.state == SUSPENDED:
                control.park_while_suspended()
                continue
        if before_chunk is not None:
            before_chunk()
        n = chunk if max_work is None else min(chunk, max_work - done)
        verdict = solver.step(n)
        if verdict is not None:
            return verdict
        done += n
    return None

"""Bounded FIFO of incoming clauses for one solver.

Records are the pushed key tuples themselves, held in a deque: one
tuple decoded from a sharing buffer sits in the queue of every solver of
that node, with no per-slot copy in or out, so a queue holds only what it
carries.  Capacity counts words: a record costs one length word plus its
literals, and at most `capacity` words are queued (a PE's slots use
`runtime.pe.RING_CAPACITY`).  The PE that hosts the solver both pushes and
pops, on the loop's one thread, so one word counter tracks the fill.  A
push that does not fit is dropped and counted; the producer never blocks.
"""
from __future__ import annotations

from collections import deque


class ImportRing:
    def __init__(self, capacity: int):
        if capacity < 4:
            raise ValueError("capacity must be >= 4")
        self.capacity = capacity
        self._records: deque[tuple[int, ...]] = deque()
        self._words = 0  # words queued
        self.dropped = 0

    def __len__(self) -> int:
        return self._words

    def try_push(self, lits: tuple[int, ...]) -> bool:
        """Append one clause; False (and a drop count bump) when full."""
        n = len(lits) + 1
        if self._words + n > self.capacity:
            self.dropped += 1
            return False
        self._records.append(lits)
        self._words += n
        return True

    def try_pop(self) -> tuple[int, ...] | None:
        """Remove and return the oldest clause, or None when empty."""
        if not self._records:
            return None
        lits = self._records.popleft()
        self._words -= len(lits) + 1
        return lits

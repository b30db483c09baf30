"""Bounded FIFO of incoming clauses for one solver.

Records are the pushed key tuples themselves, held in a deque: the tuples
decoded once from a broadcast sharing buffer sit in the queue of every
solver of that job tree, with no per-slot copy in or out, so a queue holds
only what it carries.  Capacity counts words: a record costs one length
word plus its literals, and at most `capacity` words are queued (a PE's
slots use `runtime.pe.RING_CAPACITY`).  The PE that hosts the solver both
pushes and pops, on the loop's one thread, so one word counter tracks the
fill.  A buffer lands as its longest prefix that fits; what does not fit
is dropped and counted, and the producer never blocks.
"""
from __future__ import annotations

from bisect import bisect_right
from collections import deque
from collections.abc import Sequence


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

    def push_prefix(self, clauses: Sequence[tuple[int, ...]], words: Sequence[int]) -> int:
        """Append the longest prefix of clauses that fits, count the rest as
        dropped, and return how many were appended.  words[i] is the words
        of clauses[:i + 1], a length word each included.  In a decoded
        buffer clause length never falls, so once one clause does not fit no
        later one does: this admits what clause-by-clause pushes would."""
        fit = bisect_right(words, self.capacity - self._words)
        if fit:
            self._records.extend(clauses[:fit])
            self._words += words[fit - 1]
        self.dropped += len(clauses) - fit
        return fit

    def try_push(self, lits: tuple[int, ...]) -> bool:
        """Append one clause; False (and a drop count bump) when full."""
        return self.push_prefix((lits,), (len(lits) + 1,)) == 1

    def try_pop(self) -> tuple[int, ...] | None:
        """Remove and return the oldest clause, or None when empty."""
        if not self._records:
            return None
        lits = self._records.popleft()
        self._words -= len(lits) + 1
        return lits

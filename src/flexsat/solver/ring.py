"""Single-producer single-consumer queue for incoming clauses.

Records are the pushed literal tuples themselves, held in a deque: one
tuple decoded from a sharing buffer sits in the queue of every solver of
that node, with no per-slot copy in or out, so a queue holds only what it
carries.  Capacity counts words: a record costs one length word plus its
literals, and at most `capacity` words are queued (a PE's slots use
`runtime.pe.RING_CAPACITY`).  Head and tail are monotonically increasing word
counters; the producer owns the tail, the consumer owns the head, and
each side reads the other's counter at most once per operation.
Publication order (record first, counter last) plus CPython's GIL makes
this safe without locks for exactly one producer and one consumer.  A
push that does not fit is dropped; the producer never blocks.
"""
from __future__ import annotations

from collections import deque


class ImportRing:
    def __init__(self, capacity: int):
        if capacity < 4:
            raise ValueError("capacity must be >= 4")
        self.capacity = capacity
        self._records: deque[tuple[int, ...]] = deque()
        self._head = 0  # words consumed
        self._tail = 0  # words produced
        self.dropped = 0

    def __len__(self) -> int:
        return self._tail - self._head

    def try_push(self, lits: tuple[int, ...]) -> bool:
        """Append one clause; False (and a drop count bump) when full."""
        n = len(lits) + 1
        tail = self._tail
        if n > self.capacity - (tail - self._head):  # a stale head only under-counts space
            self.dropped += 1
            return False
        self._records.append(lits)
        self._tail = tail + n  # publish after the record is in place
        return True

    def try_pop(self) -> tuple[int, ...] | None:
        """Remove and return the oldest clause, or None when empty."""
        head = self._head
        if head == self._tail:
            return None
        lits = self._records.popleft()
        self._head = head + len(lits) + 1  # publish after the record is taken
        return lits

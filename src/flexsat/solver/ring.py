"""Single-producer single-consumer ring for incoming clauses.

The ring stores flat integers: each record is a length word followed by
that many literals.  Head and tail are monotonically increasing counters;
the producer owns the tail, the consumer owns the head, and each side
reads the other's counter at most once per operation.  Publication order
(slots first, counter last) plus CPython's GIL makes this safe without
locks for exactly one producer and one consumer.  A push that does not
fit is dropped; the producer never blocks.
"""
from __future__ import annotations

from typing import Sequence


class ImportRing:
    def __init__(self, capacity: int):
        if capacity < 4:
            raise ValueError("capacity must be >= 4")
        self.capacity = capacity
        self._buf = [0] * capacity
        self._head = 0  # consumer position
        self._tail = 0  # producer position
        self.dropped = 0

    def __len__(self) -> int:
        return self._tail - self._head

    def try_push(self, lits: Sequence[int]) -> bool:
        """Append one clause; False (and a drop count bump) when full."""
        n = len(lits) + 1
        head = self._head  # snapshot; a stale value only under-counts space
        if n > self.capacity - (self._tail - head):
            self.dropped += 1
            return False
        buf, cap, tail = self._buf, self.capacity, self._tail
        buf[tail % cap] = len(lits)
        start = (tail + 1) % cap
        end = start + len(lits)
        if end <= cap:
            buf[start:end] = lits
        else:  # the record wraps around the end of the ring
            split = cap - start
            buf[start:] = lits[:split]
            buf[:end - cap] = lits[split:]
        self._tail = tail + n  # publish after the payload is in place
        return True

    def try_pop(self) -> tuple[int, ...] | None:
        """Remove and return the oldest clause, or None when empty."""
        tail = self._tail  # snapshot
        head = self._head
        if head == tail:
            return None
        buf, cap = self._buf, self.capacity
        n = buf[head % cap]
        start = (head + 1) % cap
        end = start + n
        if end <= cap:
            lits = tuple(buf[start:end])
        else:  # the record wraps around the end of the ring
            lits = tuple(buf[start:] + buf[:end - cap])
        self._head = head + n + 1  # publish after the payload is read
        return lits

    def drain(self) -> list[tuple[int, ...]]:
        out = []
        while True:
            c = self.try_pop()
            if c is None:
                return out
            out.append(c)

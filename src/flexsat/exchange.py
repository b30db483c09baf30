"""Communication-limited clause exchange: flat buffers, merging, filters.

The exchange format is a flat integer sequence grouped by clause length:
for each length l = 1, 2, 3, ... the group is a count n_l followed by
n_l * l literals.  Groups appear in increasing length; a zero count is
emitted only when a longer group follows, so trailing empty groups cost
nothing.  Within a group, clauses are in canonical lexicographic order
(literals compared by (|lit|, sign)).  A whole buffer is therefore sorted
by (length, clause), which is what makes cheap k-way merging possible.

Aggregation up a job tree carries a single counter u (how many buffers
were folded in so far).  The size admitted at a node shrinks
sublinearly with u: limit(u) = ceil(u * alpha^log2(u) * beta).  With
alpha = 1 this is the linear u*beta; with alpha = 1/2 it converges to
beta, i.e. the root broadcast never exceeds a constant.
"""
from __future__ import annotations

import heapq
import math
import struct
from fractions import Fraction
from itertools import repeat
from operator import lt
from random import Random
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    from .runtime.cluster import ClusterConfig


class BufferFormatError(ValueError):
    """Raised when a clause buffer violates the flat format."""


def buffer_limit(u: int, cfg: ClusterConfig) -> int:
    """Admitted buffer size (in integers) after aggregating u buffers.

    ceil(u * alpha^log2(u) * beta), with log2 over the reals, for the run's
    cfg.alpha and cfg.beta.  Powers of two are computed exactly in
    rationals so the ceiling never suffers float rounding right at an
    integer boundary.
    """
    if u < 1:
        raise ValueError("u must be >= 1")
    if cfg.alpha == 1.0:
        return u * cfg.beta
    if cfg.alpha == 0.5:
        return cfg.beta  # (1/2)^log2(u) = 1/u exactly, for every u
    if u & (u - 1) == 0:  # power of two: alpha^log2(u) is rational
        k = u.bit_length() - 1
        exact = Fraction(cfg.alpha) ** k * u * cfg.beta
        return -(-exact.numerator // exact.denominator)
    return math.ceil(u * cfg.alpha ** math.log2(u) * cfg.beta)


# ---------------------------------------------------------------------------
# serialization and merging

def _write(ordered: Iterable[tuple[int, ...]], limit: int | None) -> list[int]:
    """Length-grouped buffer of clauses given in (length, canonical) order.

    Whole clauses are added until the next one would push the size, group
    counts included, past the limit; everything from there on is dropped.
    """
    out: list[int] = []
    head = 0
    cur_len = 0
    for lits in ordered:
        n = len(lits)
        cost = n + (n - cur_len if n > cur_len else 0)  # zero counts for skipped lengths + own
        if limit is not None and len(out) + cost > limit:
            break
        while cur_len < n:
            cur_len += 1
            head = len(out)
            out.append(0)
        out[head] += 1
        out.extend(lits)
    return out


def _canonical_key(lits: Iterable[int]) -> list[int]:
    return [2 * l if l > 0 else 1 - 2 * l for l in lits]  # literal_key per literal


def serialize(clauses: Iterable[Sequence[int]], limit: int | None = None) -> list[int]:
    """Flatten a clause set into the length-grouped integer format.

    Each clause is a canonical literal sequence.
    Clauses are taken in (length, lexicographic) order.  If a limit is
    given, clauses are added greedily until the next one would push the
    serialized size (group counts included) past it; everything after
    that point is discarded.  Only the length groups that can still
    contribute a clause under the limit are sorted.
    """
    groups: dict[int, list[Sequence[int]]] = {}
    for c in set(clauses):
        groups.setdefault(len(c), []).append(c)
    ordered: list[Sequence[int]] = []
    size = prev = 0
    for n in sorted(groups):
        size += 2 * n - prev  # zero counts for skipped lengths, own count, first clause
        if limit is not None and size > limit:
            break  # not even one clause of this length fits
        group = groups[n]
        ordered += sorted(group, key=_canonical_key)
        size += n * (len(group) - 1)
        prev = n
    return _write(ordered, limit)


def _groups(buf: Sequence[int]):
    """Yield (length, keys, clauses) per length group of a flat buffer, validating.

    clauses holds the group's literal tuples and keys their literal_key
    tuples, index for index.  A whole group is checked at once: its count,
    zero literals, canonical order within each clause (position k against
    k + 1 over strided slices) and within the group.  BufferFormatError
    names the fault that a clause-by-clause scan of the group meets first.
    """
    pos = 0
    length = 0
    total = len(buf)
    while pos < total:
        length += 1
        n = buf[pos]
        pos += 1
        if n < 0:
            raise BufferFormatError(f"negative count {n} for length {length}")
        if n == 0:
            continue  # a skipped length: its checks below would cost O(length)
        end = pos + n * length
        if end > total:
            raise BufferFormatError(f"truncated group of length {length}")
        group = buf[pos:end]
        pos = end
        flat = [2 * l if l > 0 else 1 - 2 * l for l in group]  # literal_key
        keys = list(zip(*[iter(flat)] * length))
        clauses = list(zip(*[iter(group)] * length))
        if (0 in group
                or not all(map(lt, keys, keys[1:]))
                or not all([all(map(lt, flat[k::length], flat[k + 1::length]))
                            for k in range(length - 1)])):
            _raise_first_fault(keys, clauses)
        yield length, keys, clauses


def _raise_first_fault(keys: list[tuple], clauses: list[tuple]) -> None:
    """Raise for a rejected group's first faulty clause, in buffer order."""
    prev = None
    for key, lits in zip(keys, clauses):
        if 0 in lits:
            raise BufferFormatError("zero literal inside clause")
        if not all(map(lt, key, key[1:])):
            raise BufferFormatError(f"clause {lits} not canonical")
        if prev is not None and key <= prev:
            raise BufferFormatError("group not in canonical order")
        prev = key


def _stream(buf: Sequence[int]):
    """Yield (length, keys, lits) per clause of a flat buffer (see _groups)."""
    for length, keys, clauses in _groups(buf):
        yield from zip(repeat(length), keys, clauses)


def deserialize(buf: Sequence[int]) -> list[tuple[int, ...]]:
    """Canonical literal tuples of a buffer; inverse of serialize (see _groups)."""
    out: list[tuple[int, ...]] = []
    for _length, _keys, clauses in _groups(buf):
        out += clauses
    return out


def buffer_to_bytes(buf: Sequence[int]) -> bytes:
    """Little-endian int32 encoding, the on-disk form for golden files."""
    return struct.pack(f"<{len(buf)}i", *buf)


def buffer_from_bytes(raw: bytes) -> list[int]:
    if len(raw) % 4:
        raise BufferFormatError("byte length not a multiple of 4")
    return list(struct.unpack(f"<{len(raw) // 4}i", raw))


def _merged(streams: list) -> Iterable[tuple[int, ...]]:
    """Clauses of canonical streams in (length, canonical) order, each once.

    literal_key is injective, so equal clauses leave the heap one after
    another and comparing with the last one popped removes duplicates.  A
    stream is advanced as soon as its clause is popped, before the caller
    decides whether that clause still fits.
    """
    heap: list[tuple[int, tuple, tuple, int]] = []
    for idx, st in enumerate(streams):
        first = next(st, None)
        if first is not None:
            heapq.heappush(heap, (*first, idx))
    prev = None
    while heap:
        _length, _keys, lits, idx = heapq.heappop(heap)
        nxt = next(streams[idx], None)
        if nxt is not None:
            heapq.heappush(heap, (*nxt, idx))
        if lits != prev:
            prev = lits
            yield lits


def merge(
    buffers: Sequence[tuple[Sequence[int], int]],
    own_export: Sequence[int],
    cfg: ClusterConfig,
) -> tuple[list[int], int]:
    """k-way merge of child buffers plus this node's own export.

    Each input is (flat buffer, u).  The output u counts this node too:
    u_out = 1 + sum(u_in).  Duplicate clauses are emitted once.  The
    output is truncated at buffer_limit(u_out): whole clauses only, and
    once one clause does not fit nothing longer is admitted either.
    """
    u_out = 1 + sum(u for _, u in buffers)
    streams = [_stream(buf) for buf, _ in buffers]
    streams.append(_stream(own_export))
    return _write(_merged(streams), buffer_limit(u_out, cfg)), u_out


# ---------------------------------------------------------------------------
# duplicate filtering

class ClauseFilter:
    """Per-solver duplicate filter: exact sets of units and of clause tuples.

    A non-unit clause is remembered as the canonical literal tuple it is
    given, in one of two generations, so two clauses count as one only if
    they are equal.  Memory grows with the clauses actually seen, up to
    GEN_WORDS words per generation.  A record costs its length plus two,
    for its tuple header and set slot: at plus one, a generation of binary
    clauses crossed a set resize and a filter peaked at 8.9 MiB.  An insert
    that would overfill the current generation retires it first, so
    without forgetting a non-unit clause becomes admittable again after one
    to two generations of newer distinct clauses.
    Forgetting is probabilistic with a half life: each call removes each
    unit with probability 1/2 and retires one generation, so a non-unit
    clause becomes admittable again after at most two calls.

    Single-owner: exactly one execution context may mutate a filter.
    """

    GEN_WORDS = 1 << 16

    def __init__(self):
        self.unit_set: set[int] = set()
        self._cur: set[tuple[int, ...]] = set()
        self._old: set[tuple[int, ...]] = set()
        self._words = 0  # words held by _cur

    def _test_and_add(self, lits: tuple[int, ...]) -> bool:
        """Return True iff the clause was absent; inserts it either way."""
        if len(lits) == 1:
            (lit,) = lits
            if lit in self.unit_set:
                return False
            self.unit_set.add(lit)
            return True
        if lits in self._cur:
            return False
        cost = len(lits) + 2
        self._words += cost
        if self._words > self.GEN_WORDS:
            self._old = self._cur
            self._cur = set()
            self._words = cost
        self._cur.add(lits)
        return lits not in self._old

    # -- public surface ----------------------------------------------------
    def register_export(self, lits: tuple[int, ...]) -> bool:
        """Admit a locally learned clause; False if it was already seen."""
        return self._test_and_add(lits)

    def check_import(self, lits: tuple[int, ...]) -> bool:
        """Admit an incoming clause; False blocks re-import of known ones."""
        return self._test_and_add(lits)

    def forget_half(self, rng: Random) -> None:
        """Half-life step: drop each unit with p=1/2, retire one generation."""
        kept = {u for u in sorted(self.unit_set) if rng.getrandbits(1)}
        self.unit_set = kept
        self._old = self._cur
        self._cur = set()
        self._words = 0

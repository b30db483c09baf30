"""Communication-limited clause exchange: flat buffers, merging, filters.

The exchange format is a flat integer sequence grouped by clause length:
for each length l = 1, 2, 3, ... the group is a count n_l followed by
n_l * l literals.  Groups appear in increasing length; a zero count is
emitted only when a longer group follows, so trailing empty groups cost
nothing.  Within a group, clauses are in canonical lexicographic order
(literals compared by (|lit|, sign)).  A whole buffer is therefore sorted
by (length, clause), as Mallob ships it.  Only the buffer holds signed
literals: elsewhere a shared clause is the sorted tuple of its literal
keys (formula.literal_key, the CDCL kernel's literal code), whose tuple
order is canonical order.

Aggregation up a job tree carries a single counter u (how many buffers
were folded in so far).  The size admitted at a node shrinks
sublinearly with u: limit(u) = ceil(u * alpha^log2(u) * beta).  With
alpha = 1 this is the linear u*beta; with alpha = 1/2 it converges to
beta, i.e. the root broadcast never exceeds a constant.
"""
from __future__ import annotations

import math
import struct
from operator import lt
from random import Random
from typing import TYPE_CHECKING, Collection, Iterable, Sequence

if TYPE_CHECKING:
    from .runtime.cluster import ClusterConfig


class BufferFormatError(ValueError):
    """Raised when a clause buffer violates the flat format."""


def buffer_limit(u: int, cfg: ClusterConfig) -> int:
    """Admitted buffer size (in integers) after aggregating u buffers.

    ceil(u * alpha^log2(u) * beta), with log2 over the reals, for the run's
    cfg.alpha and cfg.beta.  Powers of two are computed exactly in
    integers, from alpha's integer ratio, so the ceiling never suffers
    float rounding right at an integer boundary.
    """
    if u < 1:
        raise ValueError("u must be >= 1")
    if cfg.alpha == 1.0:
        return u * cfg.beta
    if cfg.alpha == 0.5:
        return cfg.beta  # (1/2)^log2(u) = 1/u exactly, for every u
    if u & (u - 1) == 0:  # power of two: alpha^log2(u) is rational
        k = u.bit_length() - 1
        num, den = cfg.alpha.as_integer_ratio()
        return -(-(num**k * u * cfg.beta) // den**k)
    return math.ceil(u * cfg.alpha ** math.log2(u) * cfg.beta)


# ---------------------------------------------------------------------------
# serialization and merging

def _write(groups: dict[int, Collection[tuple[int, ...]]], limit: int | None) -> list[int]:
    """Length-grouped buffer of {length: non-empty distinct key tuples}.

    Groups are taken by increasing length, each sorted, which is canonical
    order, and each written key is decoded to its signed literal.  Whole
    clauses are added until the next one would push the size, group counts
    included, past the limit; everything from there on is dropped, so only
    the groups that still contribute a clause are sorted.
    """
    out: list[int] = []
    prev = 0
    for n in sorted(groups):
        group = groups[n]
        fit = len(group)
        if limit is not None:
            # zero counts for skipped lengths and the own count come first
            fit = min(fit, (limit - len(out) - (n - prev)) // n)
            if fit <= 0:
                break
        out += [0] * (n - prev - 1)
        out.append(fit)
        out += [-(k >> 1) if k & 1 else k >> 1  # signed literal per key
                for keys in sorted(group)[:fit] for k in keys]
        if fit < len(group):
            break
        prev = n
    return out


def serialize(clauses: Iterable[tuple[int, ...]], limit: int | None = None) -> list[int]:
    """Flatten a clause set into the length-grouped integer format.

    Each clause is a sorted tuple of literal keys (formula.literal_key);
    the buffer holds their signed literals.  Clauses are taken in (length,
    lexicographic) order.  If a limit is given, clauses are added greedily
    until the next one would push the serialized size (group counts
    included) past it; everything after that point is discarded.
    """
    groups: dict[int, list[tuple[int, ...]]] = {}
    for c in set(clauses):
        groups.setdefault(len(c), []).append(c)
    return _write(groups, limit)


def _groups(buf: Sequence[int]):
    """Yield (length, keys) per length group of a flat buffer, validating.

    keys holds the group's clauses as literal_key tuples, in buffer order.
    A whole group is checked at once: its count, zero literals, canonical
    order within each clause (position k against k + 1 over strided
    slices) and within the group.  BufferFormatError names the fault that
    a clause-by-clause scan of the group meets first.
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
        if (0 in group
                or not all(map(lt, keys, keys[1:]))
                or not all([all(map(lt, flat[k::length], flat[k + 1::length]))
                            for k in range(length - 1)])):
            _raise_first_fault(keys, group, length)
        yield length, keys


def _raise_first_fault(keys: list[tuple], group: Sequence[int], length: int) -> None:
    """Raise for a rejected group's first faulty clause, in buffer order."""
    prev = None
    for key, lits in zip(keys, zip(*[iter(group)] * length)):
        if 0 in lits:
            raise BufferFormatError("zero literal inside clause")
        if not all(map(lt, key, key[1:])):
            raise BufferFormatError(f"clause {lits} not canonical")
        if prev is not None and key <= prev:
            raise BufferFormatError("group not in canonical order")
        prev = key


def deserialize(buf: Sequence[int]) -> list[tuple[int, ...]]:
    """Literal_key tuples of a buffer's clauses; inverse of serialize (see _groups)."""
    out: list[tuple[int, ...]] = []
    for _length, keys in _groups(buf):
        out += keys
    return out


def buffer_to_bytes(buf: Sequence[int]) -> bytes:
    """Little-endian int32 encoding, the on-disk form for golden files."""
    return struct.pack(f"<{len(buf)}i", *buf)


def buffer_from_bytes(raw: bytes) -> list[int]:
    if len(raw) % 4:
        raise BufferFormatError("byte length not a multiple of 4")
    return list(struct.unpack(f"<{len(raw) // 4}i", raw))


def merge(
    buffers: Sequence[tuple[Sequence[int], int]],
    own_export: Sequence[int],
    cfg: ClusterConfig,
) -> tuple[list[int], int]:
    """Merge of child buffers plus this node's own export.

    Each input is (flat buffer, u).  The output u counts this node too:
    u_out = 1 + sum(u_in).  Every input is decoded, and so checked, in
    full; each length group is the union of the inputs' groups, so a
    duplicate clause is emitted once.  The output is truncated at
    buffer_limit(u_out): whole clauses only, and once one clause does not
    fit nothing longer is admitted either.  Writing a clause of length L
    takes a count for each length up to L and its L literals, 2L integers
    at least, so a group with 2L past the limit is checked but not collected.
    """
    u_out = 1 + sum(u for _, u in buffers)
    limit = buffer_limit(u_out, cfg)
    groups: dict[int, set[tuple[int, ...]]] = {}
    for buf in [*(buf for buf, _ in buffers), own_export]:
        for length, keys in _groups(buf):
            if 2 * length <= limit:
                groups.setdefault(length, set()).update(keys)
    return _write(groups, limit), u_out


# ---------------------------------------------------------------------------
# duplicate filtering

class ClauseFilter:
    """Per-solver duplicate filter: exact sets of units and of clause tuples.

    Clauses are literal_key tuples, units their single key.  A non-unit
    clause is remembered as the key tuple it is given, in one of two
    generations, so two clauses count as one only if they are equal.
    Memory grows with the clauses actually seen, up to GEN_WORDS words per
    generation.  A record costs its length plus two, for its tuple header
    and set slot: at plus one, a generation of binary clauses crossed a set
    resize and a filter peaked at 8.9 MiB.  An insert that would overfill
    the current generation retires it first, so without forgetting a
    non-unit clause becomes admittable again after one to two generations
    of newer distinct clauses.
    Forgetting is probabilistic with a half life: each call removes each
    unit with probability 1/2 and retires one generation, so a non-unit
    clause becomes admittable again after at most two calls.  The units'
    coins are drawn in ascending signed-literal order, not key order, as
    the pinned forgetting trace requires.

    Single-owner: exactly one execution context may mutate a filter.
    """

    GEN_WORDS = 1 << 16

    def __init__(self):
        self.unit_set: set[int] = set()
        self._cur: set[tuple[int, ...]] = set()
        self._old: set[tuple[int, ...]] = set()
        self._words = 0  # words held by _cur

    def _test_and_add(self, keys: tuple[int, ...]) -> bool:
        """Return True iff the clause was absent; inserts it either way."""
        if len(keys) == 1:
            (key,) = keys
            if key in self.unit_set:
                return False
            self.unit_set.add(key)
            return True
        if keys in self._cur:
            return False
        cost = len(keys) + 2
        self._words += cost
        if self._words > self.GEN_WORDS:
            self._old = self._cur
            self._cur = set()
            self._words = cost
        self._cur.add(keys)
        return keys not in self._old

    # -- public surface ----------------------------------------------------
    def register_export(self, keys: tuple[int, ...]) -> bool:
        """Admit a locally learned clause; False if it was already seen."""
        return self._test_and_add(keys)

    def check_import(self, keys: tuple[int, ...]) -> bool:
        """Admit an incoming clause; False blocks re-import of known ones."""
        return self._test_and_add(keys)

    def forget_half(self, rng: Random) -> None:
        """Half-life step: drop each unit with p=1/2, retire one generation."""
        kept = {u for u in sorted(self.unit_set, key=lambda k: -(k >> 1) if k & 1 else k >> 1)
                if rng.getrandbits(1)}  # one coin per unit, in signed-literal order
        self.unit_set = kept
        self._old = self._cur
        self._cur = set()
        self._words = 0

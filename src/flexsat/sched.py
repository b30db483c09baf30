"""Malleable scheduling: volumes, balancing events, PE graph, request routing.

Volumes are computed identically on every PE from the same consolidated
event set: each active job j gets v_j = clamp(lambda * pi_j * d_j, 1, d_j)
with lambda chosen so the volumes fill the worker budget, then fractional
shares are rounded by largest remainder.  The water level lambda comes
from one sweep over the jobs' sorted breakpoints, O(n log n) per call.
All arithmetic is exact, in integers (1/lambda scaled by the common
denominator of the priorities), so the result is bit-identical
everywhere.
"""
from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from random import Random
from typing import Iterable, NamedTuple, Sequence

from .formula import Cnf
from .util import MAX_SECONDS, below, is_real


# ---------------------------------------------------------------------------
# descriptors and balancing events

@dataclass(frozen=True)
class JobDescriptor:
    """What the client knows about a job it wants solved."""

    job: int
    priority: float
    arrival_s: float = 0.0
    demand: int | None = None        # max PEs wanted; None = whole budget
    cnf: Cnf | None = None
    synthetic_s: float | None = None  # fixed-duration workload instead of a CNF
    wallclock_limit_s: float | None = None
    max_volume: int | None = None

    def __post_init__(self) -> None:
        if type(self.job) is not int:
            raise ValueError(f"job {self.job!r} is not an integer")
        if not (is_real(self.priority) and 0.0 < self.priority < 1.0):
            raise ValueError(f"priority {self.priority!r} is not a number in (0,1)")
        if (self.cnf is None) == (self.synthetic_s is None):
            raise ValueError("job needs exactly one of cnf or synthetic_s")
        for name in ("demand", "max_volume"):
            value = getattr(self, name)
            if value is not None and (type(value) is not int or value < 1):
                raise ValueError(f"{name} {value!r} is not an integer >= 1")
        for name in ("synthetic_s", "wallclock_limit_s"):
            value = getattr(self, name)
            if value is not None and not (is_real(value) and 0 < value <= MAX_SECONDS):
                raise ValueError(
                    f"{name} {value!r} is not a positive finite number <= {MAX_SECONDS}")
        if not (is_real(self.arrival_s) and 0 <= self.arrival_s <= MAX_SECONDS):
            raise ValueError(f"arrival_s {self.arrival_s!r} is not a finite number >= 0"
                             f" and <= {MAX_SECONDS}")


@dataclass(frozen=True)
class JobInfo:
    """Balancing view of a job: one balancing event, and one job-table entry."""

    job: int
    priority: float
    arrival: float
    demand: int  # in an event, 0 announces completion
    epoch: int = 0


_job = attrgetter("job")


def consolidate(*event_sets: Iterable[JobInfo]) -> dict[int, JobInfo]:
    """Fold event sets; per job the highest epoch wins."""
    out: dict[int, JobInfo] = {}
    for evs in event_sets:
        for ev in evs:
            cur = out.get(ev.job)
            if cur is None or ev.epoch > cur.epoch:
                out[ev.job] = ev
    return out


def apply_events(
    table: Mapping[int, JobInfo],
    events: Iterable[JobInfo] | Mapping[int, JobInfo],
) -> dict[int, JobInfo]:
    """New job table: the table's entries and the events consolidated, per
    job the highest epoch winning (a table entry over an equal epoch), less
    every job whose winner announces completion (demand 0)."""
    if isinstance(events, Mapping):
        events = events.values()
    return {j: ev for j, ev in consolidate(table.values(), events).items() if ev.demand > 0}


# ---------------------------------------------------------------------------
# volume computation

def _tie_key(j: JobInfo) -> tuple:
    return (-j.priority, j.arrival, j.job)


def compute_volumes(jobs: Iterable[JobInfo], budget: int) -> dict[int, int]:
    """Deterministic fair volumes for the active jobs under a PE budget.

    Guarantees: sum of volumes <= budget; 1 <= v_j <= demand_j for every
    scheduled job; unpinned jobs sit within one PE of their exact
    proportional share.  With more jobs than budget, surplus jobs (lowest
    priority, then latest arrival, then highest id) are deferred at 0.
    The map has one entry per active job, in job order.

    The water level is found by one sweep: each job's two breakpoints
    (leaving the floor, reaching the cap) are computed once and sorted, and
    the segments between them are walked in order while the floored count,
    capped demand and mid weight are updated from the jobs crossing each
    breakpoint.  The first segment that holds the level gives lambda; the
    jobs are classified once, against that segment's ends.  The sweep runs
    in 1/lambda scaled to integers, so every breakpoint, weight and share
    is an exact integer; sorting dominates: O(n log n) per call.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    active = sorted(jobs, key=_job)
    total_d, prev, dup = 0, None, False
    for j in active:
        if not (0.0 < j.priority < 1.0):
            raise ValueError(f"job {j.job}: priority {j.priority} out of (0,1)")
        if j.demand < 1:
            raise ValueError(f"job {j.job}: demand must be >= 1")
        total_d += j.demand
        dup = dup or j.job == prev  # sorted: equal ids are neighbours
        prev = j.job
    if dup:
        raise ValueError("duplicate job ids")
    n = len(active)
    if budget >= total_d:
        return {j.job: j.demand for j in active}
    if budget < n:
        vols = dict.fromkeys([j.job for j in active], 0)
        for j in sorted(active, key=_tie_key)[:budget]:
            vols[j.job] = 1
        return vols

    # In mu = 1/lambda, scaled by the common denominator of the priorities,
    # every breakpoint is an integer: job j (pi_j = p_j / scale) reaches its
    # cap at p_j and leaves the floor at w_j = p_j d_j.  Per distinct
    # breakpoint, `leaving` counts the jobs leaving the floor there and
    # `capping` sums the demand of those capped there.
    ratios = [j.priority.as_integer_ratio() for j in active]
    scale = math.lcm(*[den for _, den in ratios])
    caps = [num * (scale // den) for num, den in ratios]
    leaves = [p * j.demand for p, j in zip(caps, active)]
    leaving: dict[int, int] = {}
    capping: dict[int, int] = {}
    for j, w, p in zip(active, leaves, caps):
        leaving[w] = leaving.get(w, 0) + 1
        capping[p] = capping.get(p, 0) + j.demand

    # Sweep the segments (lower, upper) from the top breakpoint down; above
    # it every job sits on the floor.  With r PEs left beside the floored
    # and capped jobs, the level is mu = wm / r, so the first segment with
    # lower * r <= wm <= upper * r holds it.  Crossing k moves weight k per
    # job leaving the floor into the mid weight, and k d_j per job capped
    # at k out of it.
    floored, capped, wm = n, 0, 0
    upper = None  # the top segment is unbounded, and only ever has wm == 0
    for lower in sorted(leaving.keys() | capping.keys(), reverse=True):
        r = budget - floored - capped
        if (lower * r <= wm <= upper * r) if wm else r == 0:
            break
        out, cap_demand = leaving.get(lower, 0), capping.get(lower, 0)
        floored -= out
        capped += cap_demand
        wm += lower * (out - cap_demand)
        upper = lower
    else:
        raise AssertionError("water level must exist for n <= budget < total demand")

    # No breakpoint lies inside the segment, so each job is classified by
    # its own breakpoints against the segment's ends.  A mid job's share
    # r w_j / wm is one divmod: its floor, and its remainder over wm, which
    # leads its rounding key.  The map is filled in job order.
    vols: dict[int, int] = {}
    by_remainder: list[tuple] = []
    leftover = r
    for j, w, p in zip(active, leaves, caps):
        if w <= lower:
            vols[j.job] = 1
        elif upper is not None and p >= upper:
            vols[j.job] = j.demand
        else:
            share, rem = divmod(r * w, wm)
            vols[j.job] = share
            leftover -= share
            by_remainder.append((-rem,) + _tie_key(j))
    by_remainder.sort()
    for key in by_remainder[:leftover]:
        vols[key[-1]] += 1  # the tie key ends in the job id
    return vols


# ---------------------------------------------------------------------------
# job trees and request routing

def parent_index(x: int) -> int:
    if x < 1:
        raise ValueError("root has no parent")
    return (x - 1) // 2


def child_indices(x: int) -> tuple[int, int]:
    return (2 * x + 1, 2 * x + 2)


def max_request_hops(p: int) -> int:
    """Starvation guard: park a request after 32*ln(p) unmatched hops."""
    return max(1, math.ceil(32.0 * math.log(max(2, p))))


@dataclass
class JobRequest:
    """A request for someone to adopt node x of job's tree."""

    job: int
    x: int
    hops: int = 0
    origin: int = -1        # PE that emitted it (client for x = 0)
    hint_used: bool = False


class PeView(NamedTuple):
    """The slice of PE state the routing policy needs."""

    pe_id: int
    idle: bool
    holds_suspended: bool   # a suspended node for exactly (job, x)
    can_adopt: bool         # idle and cache admits (after eviction if needed)
    hint: int | None
    neighbors: Sequence[int]
    h_max: int


class RouteDecision(NamedTuple):
    action: str             # "resume" | "adopt" | "park" | "forward"
    dst: int | None = None


def route_request(req: JobRequest, view: PeView, rng: Random) -> RouteDecision:
    """Routing policy for one request arriving at one PE.

    Resume beats fresh adoption; a remembered former child is preferred
    once per walk; exhausted requests go back to their origin to be
    re-emitted next epoch.
    """
    if view.idle and view.holds_suspended:
        return RouteDecision("resume")
    if view.can_adopt:
        return RouteDecision("adopt")
    if req.hops >= view.h_max:
        return RouteDecision("park", req.origin)
    req.hops += 1
    dst = next_hop(req, view.hint, view.pe_id, view.neighbors, rng)
    if dst is None:
        return RouteDecision("park", req.origin)
    return RouteDecision("forward", dst)


def next_hop(req: JobRequest, hint: int | None, pe_id: int,
             neighbors: Sequence[int], rng: Random) -> int | None:
    """Where a request goes next: the remembered former child once per walk,
    else a random neighbour; None when there is neither."""
    if hint is not None and not req.hint_used and hint != pe_id:
        req.hint_used = True
        return hint
    if not neighbors:
        return None
    return neighbors[below(rng.getrandbits, len(neighbors))]


# ---------------------------------------------------------------------------
# PE communication graph

def build_pe_graph(
    worker_ids: Sequence[int], degree: int, seed: int
) -> dict[int, tuple[int, ...]]:
    """Exactly r-regular directed neighbour lists, r = min(max(degree, 1), n - 1).

    The lists are the union of r permutations of the n workers.  Each is
    one seeded `shuffle` of the worker indices, repaired: every position
    whose worker clashes (the position itself, or a neighbour it already
    has) is freed, then given a worker along a breadth-first augmenting
    path over the allowed (position, worker) pairs.  One always exists:
    after k clean permutations every position allows n - 1 - k workers and
    every worker allows n - 1 - k positions, so for k < r that bipartite
    graph is regular and has a perfect matching (Hall's theorem), and a
    free position of a matching that is not perfect starts an augmenting
    path.  So every worker has r distinct out-neighbours and r
    in-neighbours, none of them itself.
    """
    ids = list(worker_ids)
    n = len(ids)
    if n < 2:
        return {w: () for w in ids}
    rng = Random(seed)
    rows = [[i] for i in range(n)]  # position i: itself, then its neighbours
    for _ in range(max(1, min(degree, n - 1))):
        match = list(range(n))
        rng.shuffle(match)
        owner = [-1] * n  # the position each worker fills; -1 when free
        free = []
        for i, w in enumerate(match):
            if w in rows[i]:
                free.append(i)
            else:
                owner[w] = i
        spare = [match[i] for i in free]
        for i in free:
            _augment(i, match, owner, rows, spare)
        for row, w in zip(rows, match):
            row.append(w)
    return {ids[i]: tuple(ids[w] for w in row[1:]) for i, row in enumerate(rows)}


def _augment(root: int, match: list[int], owner: list[int],
             rows: list[list[int]], spare: list[int]) -> None:
    """Give free position root a worker: search breadth first from root for
    a free worker, each step going from a position to one of its allowed
    workers and on to the position that holds it, then move every position
    on the path to the worker it reached.  Each position tries the workers
    freed by the repair (spare) before all the others."""
    via = {root: -1}
    queue = [root]
    for p in queue:
        for w in chain(spare, range(len(owner))):
            q = owner[w]
            if q in via or w in rows[p]:
                continue
            if q < 0:
                while p >= 0:
                    owner[w] = p
                    match[p], w = w, match[p]
                    p = via[p]
                return
            via[q] = p
            queue.append(q)

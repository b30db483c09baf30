"""Scheduling: volumes vs an independent oracle, events, routing, PE graph."""
import math
from collections import Counter
from fractions import Fraction
from random import Random
from types import MappingProxyType

import pytest

from flexsat.formula import Cnf
from flexsat.sched import (JobDescriptor, JobInfo, JobRequest,
                           PeView, apply_events, build_pe_graph,
                           child_indices, compute_volumes, consolidate,
                           max_request_hops, parent_index, route_request)
from helpers import (reference_apply_events, reference_compute_volumes, segment_scan_volumes,
                     volume_oracle)


def J(job, pri, demand, arrival=0.0, epoch=0):
    return JobInfo(job, pri, arrival, demand, epoch)


def random_jobs(rng: Random, n: int) -> list[JobInfo]:
    jobs = []
    for job in rng.sample(range(1, 100), n):
        pri = rng.choice([0.25, 0.5, 0.75, round(rng.uniform(0.05, 0.95), 3)])
        arr = rng.choice([0.0, 1.0, 2.0, round(rng.uniform(0, 9), 2)])
        jobs.append(J(job, pri, rng.randrange(1, 13), arr))
    return jobs


# ---------------------------------------------------------------------------
# descriptors and events


def test_descriptor_priority_bounds():
    with pytest.raises(ValueError, match="priority"):
        JobDescriptor(1, 1.0, synthetic_s=1.0)
    with pytest.raises(ValueError, match="priority"):
        JobDescriptor(1, 0.0, synthetic_s=1.0)


def test_descriptor_needs_exactly_one_payload():
    with pytest.raises(ValueError, match="exactly one"):
        JobDescriptor(1, 0.5)
    with pytest.raises(ValueError, match="exactly one"):
        JobDescriptor(1, 0.5, cnf=Cnf.from_clauses(1, [[1]]), synthetic_s=2.0)
    JobDescriptor(1, 0.5, synthetic_s=2.0)  # fine


def test_consolidate_highest_epoch_wins():
    a = JobInfo(7, 0.5, 0.0, 4, 1)
    b = JobInfo(7, 0.5, 0.0, 2, 3)
    c = JobInfo(8, 0.3, 1.0, 6, 0)
    out = consolidate([a, c], [b], [a])
    assert out[7] is b and out[8] is c and len(out) == 2


def test_apply_events_add_update_remove_stale():
    table = {5: J(5, 0.5, 4, epoch=2)}
    evs = [
        JobInfo(5, 0.5, 0.0, 9, 1),   # stale, ignored
        JobInfo(6, 0.7, 1.0, 3, 0),   # new job
    ]
    out = apply_events(table, evs)
    assert out[5].demand == 4 and out[6].demand == 3
    out2 = apply_events(out, [JobInfo(5, 0.5, 0.0, 0, 3)])
    assert 5 not in out2 and 6 in out2
    out3 = apply_events(out, consolidate([JobInfo(6, 0.7, 1.0, 8, 2)]))
    assert out3[6].demand == 8  # mapping form accepted


def test_apply_events_matches_the_reference_apply_events():
    """apply_events against the event loop it replaced, kept in the tests,
    compared as mappings: tables (plain and read-only) and event sets with
    at most one event per job, as a balancing fold delivers them, given as
    a mapping or as a shuffled list; stale, equal and newer epochs, and
    completions of jobs the table holds and of jobs it lacks."""
    rng = Random(40)
    seen = Counter()
    for _trial in range(3000):
        table = {j: J(j, rng.choice([0.25, 0.5, 0.75]), rng.randrange(1, 5),
                      arrival=rng.randrange(3), epoch=rng.randrange(5))
                 for j in rng.sample(range(1, 13), rng.randrange(0, 9))}
        events = []
        for j in rng.sample(range(1, 16), rng.randrange(0, 9)):
            ev = J(j, rng.choice([0.25, 0.5, 0.75]), rng.choice([0, 0, 1, 2, 7]),
                   arrival=rng.randrange(3), epoch=rng.randrange(6))
            cur = table.get(j)
            seen["absent_done" if cur is None and ev.demand == 0
                 else "absent" if cur is None
                 else "stale" if ev.epoch < cur.epoch
                 else "equal" if ev.epoch == cur.epoch
                 else "done" if ev.demand == 0 else "newer"] += 1
            events.append(ev)
        if rng.getrandbits(1):
            events = {ev.job: ev for ev in events}
            seen["mapping"] += 1
        else:
            seen["list"] += 1
        if rng.getrandbits(1):
            table = MappingProxyType(table)
        got = apply_events(table, events)
        assert type(got) is dict
        assert got == reference_apply_events(table, events)
        assert all(ev.demand > 0 for ev in got.values())
    assert min(seen.values()) >= 500, seen


def test_apply_events_takes_the_highest_epoch_of_a_job_listed_twice():
    """A list naming one job twice: the highest epoch wins, as in
    consolidate, so an older event cannot bring back a completed job."""
    table = {5: J(5, 0.5, 4, epoch=1)}
    done, stale = JobInfo(5, 0.5, 0.0, 0, 4), JobInfo(5, 0.5, 0.0, 3, 2)
    assert apply_events(table, [done, stale]) == {}
    assert apply_events(table, [stale, done]) == {}
    newer = JobInfo(5, 0.5, 0.0, 6, 5)
    assert apply_events(table, [newer, done, stale]) == {5: newer}


# ---------------------------------------------------------------------------
# volumes


def test_volumes_empty_and_validation():
    assert compute_volumes([], 8) == {}
    with pytest.raises(ValueError, match="priority"):
        compute_volumes([J(1, 1.5, 3)], 8)
    with pytest.raises(ValueError, match="demand"):
        compute_volumes([J(1, 0.5, 0)], 8)
    with pytest.raises(ValueError, match="duplicate"):
        compute_volumes([J(1, 0.5, 3), J(1, 0.5, 3)], 8)
    with pytest.raises(ValueError, match="budget"):
        compute_volumes([J(1, 0.5, 3)], -1)


def test_volumes_budget_smaller_than_job_count():
    jobs = [J(1, 0.5, 4, arrival=1.0), J(2, 0.9, 4), J(3, 0.5, 4, arrival=0.0)]
    vm = compute_volumes(jobs, 2)
    # highest priority first, then earliest arrival
    assert vm == {2: 1, 3: 1, 1: 0}
    assert list(vm) == [1, 2, 3]  # every active job, deferred ones at 0, in job order


def test_volumes_budget_covers_all_demand():
    jobs = [J(1, 0.2, 3), J(2, 0.8, 5)]
    assert compute_volumes(jobs, 20) == {1: 3, 2: 5}


def test_volumes_equal_split_with_remainder():
    jobs = [J(1, 0.5, 4), J(2, 0.5, 4)]
    assert compute_volumes(jobs, 4) == {1: 2, 2: 2}
    # odd budget: remainder goes to the lower job id on a full tie
    assert compute_volumes(jobs, 5) == {1: 3, 2: 2}


def test_volumes_cap_and_floor():
    vm = compute_volumes([J(1, 0.9, 1), J(2, 0.1, 100)], 20)
    assert vm == {1: 1, 2: 19}
    vm = compute_volumes([J(1, 0.99, 50), J(2, 0.01, 50)], 10)
    assert vm[2] == 1 and vm[1] == 9


def test_volumes_sum_fills_budget_exactly_when_scarce():
    rng = Random(31)
    for _ in range(50):
        jobs = random_jobs(rng, rng.randrange(1, 9))
        total = sum(j.demand for j in jobs)
        if total <= len(jobs):
            continue
        budget = rng.randrange(len(jobs), total)
        vm = compute_volumes(jobs, budget)
        assert sum(vm.values()) == budget


def test_volumes_match_oracle_randomized():
    rng = Random(4242)
    for trial in range(400):
        jobs = random_jobs(rng, rng.randrange(0, 13))
        budget = rng.randrange(0, 80)
        vm = compute_volumes(jobs, budget)
        expect = volume_oracle(jobs, budget)
        assert vm == expect, f"trial {trial}"
        for j in jobs:
            v = vm[j.job]
            assert 0 <= v <= j.demand
            if budget >= len(jobs):
                assert v >= 1


def test_volumes_permutation_invariant():
    rng = Random(17)
    jobs = random_jobs(rng, 10)
    vm = compute_volumes(jobs, 23)
    for _ in range(5):
        rng.shuffle(jobs)
        assert compute_volumes(jobs, 23) == vm


# Dyadic priorities make breakpoints and filled volumes small exact
# rationals, so ties between jobs and integral levels at a breakpoint occur.
DYADIC = (0.125, 0.25, 0.375, 0.5, 0.75)


def _sweep_case_jobs(rng: Random, n: int, kind: str) -> list[JobInfo]:
    ids = rng.sample(range(1, 4 * n + 8), n)
    if kind == "float":
        pri = [round(rng.uniform(0.01, 0.99), rng.choice([2, 6])) for _ in ids]
        dem = [rng.randrange(1, 17) for _ in ids]
    elif kind == "tied":
        pri = [rng.choice(DYADIC[:2]) for _ in ids]
        dem = [rng.choice((1, 2, 4)) for _ in ids]
    elif kind == "gap":
        # Capped high-priority jobs (caps at 1/pi <= 2) and floored
        # low-priority ones (leaving the floor at 1/(pi d) >= 8/3): no job
        # is between floor and cap on the segments in that gap.
        split = rng.randrange(1, n) if n > 1 else 1
        pri = [rng.choice((0.5, 0.75)) if i < split else 0.125 for i in range(n)]
        dem = [rng.choice((1, 2, 3)) for _ in ids]
    else:
        pri = [rng.choice(DYADIC) for _ in ids]
        dem = [rng.choice((1, 1, 2, 3, 4, 8)) for _ in ids]
    arr = [rng.choice((0.0, 1.0, round(rng.uniform(0, 9), 1))) for _ in ids]
    return [J(j, p, d, a) for j, p, d, a in zip(ids, pri, dem, arr)]


def _breakpoint_budgets(rng: Random, jobs: list[JobInfo]) -> set[int]:
    """Budgets whose water level lies exactly on one of a few breakpoints."""
    total = sum(j.demand for j in jobs)
    out = set()
    for j in rng.sample(jobs, min(3, len(jobs))):
        for p in (1 / (Fraction(j.priority) * j.demand), 1 / Fraction(j.priority)):
            filled = sum(min(Fraction(k.demand),
                             max(Fraction(1), p * Fraction(k.priority) * k.demand))
                         for k in jobs)
            if filled.denominator == 1 and len(jobs) <= filled < total:
                out.add(int(filled))
    return out


def test_volumes_sweep_matches_segment_scan():
    rng = Random(9090)
    seen = dict.fromkeys(("budget<n", "budget==n", "budget==total-1",
                          "on_breakpoint", "demand1", "gap"), 0)
    for trial in range(2000):
        kind = ("float", "dyadic", "tied", "gap")[trial % 4]
        n = rng.randrange(17, 65) if trial % 25 == 0 else rng.randrange(1, 17)
        jobs = _sweep_case_jobs(rng, n, kind)
        total = sum(j.demand for j in jobs)
        on_point = _breakpoint_budgets(rng, jobs) if kind != "float" else set()
        budgets = {rng.randrange(0, total + 2)}
        if n <= 16:  # the old scan is quadratic: edge budgets on small sets
            edges = [rng.randrange(0, n), n, total - 1]
            edges += [rng.choice(sorted(on_point))] if on_point else []
            budgets.add(edges[(trial // 4) % len(edges)])
        for budget in sorted(b for b in budgets if b >= 0):
            got = compute_volumes(jobs, budget)
            assert got == segment_scan_volumes(jobs, budget), (trial, budget)
            seen["budget<n"] += budget < n
            seen["budget==n"] += budget == n < total
            seen["budget==total-1"] += n <= budget == total - 1
            seen["on_breakpoint"] += budget in on_point
        seen["demand1"] += any(j.demand == 1 for j in jobs)
        seen["gap"] += kind == "gap" and 0 < sum(j.priority > 0.125 for j in jobs) < n
    assert min(seen.values()) >= 100, seen


@pytest.mark.parametrize("kind", ["float", "tied"])
def test_volumes_sweep_matches_segment_scan_512(kind):
    rng = Random(512)
    jobs = _sweep_case_jobs(rng, 512, kind)
    total = sum(j.demand for j in jobs)
    budgets = [(512 + total) // 3]
    if kind == "tied":  # few distinct breakpoints keep the old scan cheap
        budgets += [512, total - 1]
    for budget in budgets:
        assert compute_volumes(jobs, budget) == segment_scan_volumes(jobs, budget)


EXTREME = (5e-324, 2.0 ** -60, 0.1, 1 / 3, 1 - 2.0 ** -53)


def test_volumes_sweep_extreme_priorities():
    """Priorities from the least subnormal to just under 1, demands up to
    10**6: the sweep's common denominator reaches 2**1074, and its integers
    must still give the oracle's maps, at n, at total - 1 and with the
    level exactly on a breakpoint."""
    rng = Random(1074)
    seen = dict.fromkeys(("subnormal", "budget==n", "budget==total-1",
                          "on_breakpoint", "demand>1000"), 0)
    for trial in range(300):
        n = rng.randrange(1, 9)
        jobs = [J(job, rng.choice(EXTREME),
                  rng.choice((1, 2, 3, 10 ** 6, rng.randrange(1, 10 ** 6 + 1))),
                  rng.choice((0.0, 1.0)))
                for job in rng.sample(range(1, 50), n)]
        total = sum(j.demand for j in jobs)
        on_point = _breakpoint_budgets(rng, jobs)
        budgets = {n, total - 1, rng.randrange(n, total + 1)} | on_point
        for budget in sorted(budgets):
            assert compute_volumes(jobs, budget) == segment_scan_volumes(jobs, budget), \
                (trial, budget)
            seen["budget==n"] += budget == n < total
            seen["budget==total-1"] += n <= budget == total - 1
            seen["on_breakpoint"] += budget in on_point and n <= budget < total
        seen["subnormal"] += any(j.priority == 5e-324 for j in jobs)
        seen["demand>1000"] += any(j.demand > 1000 for j in jobs)
    assert min(seen.values()) >= 100, seen


def _volumes_outcome(fn, jobs: list[JobInfo], budget: int):
    """A volume map as its (job, volume) items in key order, or the
    message of the ValueError it raised."""
    try:
        return list(fn(list(jobs), budget).items())
    except ValueError as exc:
        return "ValueError: " + str(exc)


def _reference_case(rng: Random) -> tuple[list[JobInfo], int]:
    """n from 0 to 40 jobs, a budget from 0 to 100, priorities with long
    binary fractions, demands up to 10**6, and in half the cases a few
    priorities and small demands, so that rounding ties between jobs occur.
    Three cases in eight have a duplicate id, a priority or demand out of
    range, or a negative budget, and some of them two such faults."""
    n = rng.randrange(41)
    budget = rng.randrange(101)
    tied = rng.random() < 0.5  # few priorities and demands: rounding ties
    jobs = []
    for job in rng.sample(range(1, 4 * n + 8), n):
        if tied:
            pri, demand = rng.choice((0.25, 0.5, 1 / 3)), rng.choice((1, 2, 3, 4))
        else:
            pri = rng.choice((rng.random(), rng.uniform(0.001, 0.999), 1 / 3, 0.2,
                              rng.choice(DYADIC)))
            demand = rng.choice((1, 2, rng.randrange(1, 17), rng.randrange(1, 10 ** 6 + 1)))
        arrival = rng.choice((0.0, 1.0, round(rng.uniform(0, 9), 1)))
        jobs.append(J(job, pri, demand, arrival))
    for _fault in range(rng.choice((0, 0, 0, 0, 0, 1, 1, 2))):
        kind = rng.randrange(4)
        if kind == 3:
            budget = -rng.randrange(1, 4)
        elif not jobs:
            continue
        elif kind == 0:
            twin = rng.choice(jobs)
            jobs.append(J(twin.job, rng.choice((twin.priority, 0.5)),
                          rng.randrange(1, 9), twin.arrival))
        elif kind == 1:
            k = rng.randrange(len(jobs))
            bad = rng.choice((0.0, 1.0, -0.25, 1.5, math.nan))
            jobs[k] = J(jobs[k].job, bad, jobs[k].demand, jobs[k].arrival)
        else:
            k = rng.randrange(len(jobs))
            jobs[k] = J(jobs[k].job, jobs[k].priority, rng.choice((0, -3)), jobs[k].arrival)
    rng.shuffle(jobs)
    return jobs, budget


def test_volumes_match_the_reference_sweep():
    """compute_volumes against the sweep it replaced, kept in the tests:
    the same maps, in the same key order, and the same ValueError message
    for the same fault first, over 20 000 seeded cases."""
    rng = Random(2034)
    seen = Counter()
    for case in range(20_000):
        jobs, budget = _reference_case(rng)
        got = _volumes_outcome(compute_volumes, jobs, budget)
        assert got == _volumes_outcome(reference_compute_volumes, jobs, budget), (case, budget)
        total = sum(j.demand for j in jobs)
        if isinstance(got, str):
            seen[next(w for w in ("budget", "duplicate", "priority", "demand") if w in got)] += 1
        elif budget < len(jobs):
            seen["budget<n"] += 1
        elif budget >= total:
            seen["budget>=total"] += 1
        else:
            seen["sweep"] += 1
    assert min(seen.values()) >= 100 and len(seen) == 7, seen


# ---------------------------------------------------------------------------
# trees, hops, routing


def test_tree_indices():
    assert child_indices(0) == (1, 2)
    assert child_indices(4) == (9, 10)
    for x in range(1, 200):
        assert parent_index(x) in range(x)
        a, b = child_indices(parent_index(x))
        assert x in (a, b)
    with pytest.raises(ValueError):
        parent_index(0)


def test_max_request_hops():
    assert max_request_hops(2) == 23   # ceil(32 ln 2)
    assert max_request_hops(1) == 23   # clamped to p = 2
    assert max_request_hops(100) == 148


def make_view(**kw):
    base = dict(pe_id=3, idle=False, holds_suspended=False, can_adopt=False,
                hint=None, neighbors=(1, 2, 4, 5), h_max=20)
    base.update(kw)
    return PeView(**base)


def test_route_resume_beats_adopt():
    req = JobRequest(1, 2, hops=5, origin=0)
    d = route_request(req, make_view(idle=True, holds_suspended=True,
                                     can_adopt=True), Random(0))
    assert d.action == "resume" and req.hops == 5


def test_route_adopt():
    d = route_request(JobRequest(1, 2), make_view(can_adopt=True), Random(0))
    assert d.action == "adopt"


def test_route_park_at_hop_limit():
    req = JobRequest(1, 2, hops=20, origin=7)
    d = route_request(req, make_view(), Random(0))
    assert d.action == "park" and d.dst == 7 and req.hops == 20


def test_route_hint_preferred_once():
    req = JobRequest(1, 2, origin=0)
    d = route_request(req, make_view(hint=9), Random(0))
    assert d.action == "forward" and d.dst == 9
    assert req.hint_used and req.hops == 1
    d2 = route_request(req, make_view(hint=9), Random(0))
    assert d2.action == "forward" and d2.dst in (1, 2, 4, 5)
    assert req.hops == 2


def test_route_hint_to_self_skipped():
    d = route_request(JobRequest(1, 2), make_view(hint=3), Random(0))
    assert d.action == "forward" and d.dst in (1, 2, 4, 5)


def test_route_random_forward_is_seeded():
    picks = {route_request(JobRequest(1, 2), make_view(), Random(s)).dst
             for s in range(40)}
    assert picks <= {1, 2, 4, 5} and len(picks) > 1
    a = route_request(JobRequest(1, 2), make_view(), Random(6)).dst
    b = route_request(JobRequest(1, 2), make_view(), Random(6)).dst
    assert a == b


def test_route_no_neighbors_parks():
    d = route_request(JobRequest(1, 2, origin=4), make_view(neighbors=()),
                      Random(0))
    assert d.action == "park" and d.dst == 4


# ---------------------------------------------------------------------------
# PE graph


@pytest.mark.parametrize("degree", range(1, 7))
def test_graph_regularity(degree):
    # Every worker has exactly min(degree, n - 1) distinct out-neighbours
    # and as many in-neighbours, all of them other workers.  Small clusters
    # at high degree leave a permutation the fewest choices (a 7-worker
    # cluster is what every p=8 run builds), so they get many seeds.
    rng = Random(4242 + degree)
    for n in [*range(71), 127]:
        ids = rng.sample(range(1, 4 * n + 1), n)
        deg = min(degree, n - 1)
        for _ in range(40 if n <= 12 else 1):
            seed = rng.getrandbits(64)
            g = build_pe_graph(ids, degree, seed)
            assert sorted(g) == sorted(ids)
            indeg = dict.fromkeys(ids, 0)
            for w, outs in g.items():
                assert len(set(outs) & indeg.keys()) == len(outs) == deg, (n, seed)
                assert w not in outs, (n, seed)
                for v in outs:
                    indeg[v] += 1
            assert set(indeg.values()) <= {deg}, (n, seed)


def test_graph_edges_and_determinism():
    ids = list(range(10, 26))
    assert build_pe_graph(ids, 4, seed=3) == build_pe_graph(ids, 4, seed=3)
    assert build_pe_graph(ids, 4, seed=3) != build_pe_graph(ids, 4, seed=4)


def test_graph_tiny_cases():
    assert build_pe_graph([], 4, 0) == {}
    assert build_pe_graph([9], 4, 0) == {9: ()}
    assert build_pe_graph([1, 2], 4, 0) == {1: (2,), 2: (1,)}


def test_pe_graph_draws_one_shuffle_per_permutation(monkeypatch):
    # Every request walk, and so every simulated trace, runs on this graph:
    # its generator must give r = min(max(degree, 1), n - 1) shuffles of
    # the worker indices and nothing else, so the repair consumes no draws.
    # The sweep includes the 5-7-worker clusters whose first shuffles clash
    # most, and one large cluster, which the iterative repair handles too.
    made: list = []

    class Recording(Random):
        def __init__(self, seed):
            super().__init__(seed)
            self.shuffled: list[int] = []
            made.append(self)

        def shuffle(self, x):
            self.shuffled.append(len(x))
            super().shuffle(x)

    monkeypatch.setattr("flexsat.sched.Random", Recording)
    rng = Random(3131)
    for n, degree in [*((n, d) for n in range(2, 13) for d in range(0, 7)),
                      (1000, 6)]:
        seed = rng.getrandbits(64)
        made.clear()
        g = build_pe_graph(rng.sample(range(1, 4 * n + 1), n), degree, seed)
        r = max(1, min(degree, n - 1))
        assert len(made) == 1 and made[0].shuffled == [n] * r, (n, degree)
        twin = Random(seed)
        for _ in range(r):
            twin.shuffle(list(range(n)))
        assert made[0].getstate() == twin.getstate(), (n, degree, seed)
        assert all(len(outs) == r for outs in g.values())

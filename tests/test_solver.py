"""Solver backends: CDCL and local search against an exhaustive oracle."""
import threading
import time
import tracemalloc
from collections import Counter, deque
from dataclasses import replace
from heapq import heapify, heappop, heappush
from random import Random

import pytest

from flexsat.formula import Cnf, canonical_literals, check_model
from flexsat.solver import (CDCL_PRESETS, PORTFOLIO_CYCLE, SAT, UNKNOWN,
                            UNSAT, CdclParams, CdclSolver, ImportRing,
                            SlsParams, SlsSolver, SolverControl,
                            cdcl_solve, make_portfolio_config, sls_solve,
                            throttled_thread_count)
from flexsat.solver.control import drive
from flexsat.solver.sls import _below, _preprocess
from flexsat.util import luby
from helpers import oracle_verdict, php_cnf, random_3cnf, xor_chain_cnf


# ---------------------------------------------------------------------------
# CDCL vs the truth-table oracle


def test_cdcl_matches_oracle_on_random_instances():
    rng = Random(314)
    sat_seen = unsat_seen = 0
    for trial in range(40):
        n = rng.randrange(8, 17)
        m = int(n * rng.choice([3.0, 4.26, 5.5]))
        cnf = random_3cnf(rng, n, m)
        expect = oracle_verdict(cnf)
        res = cdcl_solve(cnf, CDCL_PRESETS[trial % len(CDCL_PRESETS)],
                         seed=trial)
        assert res.verdict == expect, f"trial {trial}"
        if expect == SAT:
            sat_seen += 1
            assert check_model(cnf, res.model)
        else:
            unsat_seen += 1
            assert res.model is None
    assert sat_seen > 5 and unsat_seen > 5  # the mix actually exercised both


def test_cdcl_pigeonhole_unsat():
    assert cdcl_solve(php_cnf(3)).verdict == UNSAT
    assert cdcl_solve(php_cnf(4)).verdict == UNSAT


def test_cdcl_xor_chains():
    sat = xor_chain_cnf(10, 0)
    res = cdcl_solve(sat, seed=1)
    assert res.verdict == SAT and check_model(sat, res.model)
    base = xor_chain_cnf(7, 0)
    other = xor_chain_cnf(7, 1)
    merged = Cnf.from_clauses(base.num_vars,
                              [c.lits for c in base.clauses]
                              + [c.lits for c in other.clauses])
    assert cdcl_solve(merged).verdict == UNSAT


def test_cdcl_contradictory_units():
    res = cdcl_solve(Cnf.from_clauses(1, [[1], [-1]]))
    assert res.verdict == UNSAT


def test_cdcl_empty_formula():
    res = cdcl_solve(Cnf.from_clauses(3, []))
    assert res.verdict == SAT
    assert set(res.model) == {1, 2, 3}
    res0 = cdcl_solve(Cnf.from_clauses(0, []))
    assert res0.verdict == SAT and res0.model == {}


def test_cdcl_deterministic_per_seed():
    cnf = random_3cnf(Random(9), 25, 106)

    def run():
        r = cdcl_solve(cnf, CdclParams(phase="rand", random_freq=0.05), seed=5)
        return (r.verdict, r.model, r.stats.conflicts, r.stats.decisions,
                r.stats.propagations)

    assert run() == run()


def test_cdcl_step_interface():
    cnf = php_cnf(4)
    s = CdclSolver(cnf, seed=0)
    verdict = None
    steps = 0
    while verdict is None and steps < 10_000:
        verdict = s.step(max_conflicts=10)
        steps += 1
    assert verdict == UNSAT
    assert s.step(10) == UNSAT  # stable after completion
    assert s.result().verdict == UNSAT
    assert s.stats.conflicts > 0 and s.stats.learned > 0


def test_cdcl_suspend_blocks_progress():
    cnf = php_cnf(5)
    ctl = SolverControl()
    s = CdclSolver(cnf, control=ctl)
    s.step(20)
    before = s.stats.conflicts
    ctl.suspend()
    assert s.step(50) is None
    assert s.stats.conflicts == before
    ctl.resume()
    s.step(20)
    assert s.stats.conflicts > before


def test_cdcl_terminate_returns_unknown():
    ctl = SolverControl()
    ctl.terminate()
    res = CdclSolver(php_cnf(5), control=ctl).solve()
    assert res.verdict == UNKNOWN


def test_cdcl_import_falsified_unit_gives_unsat():
    pending = [(-1,)]
    res = cdcl_solve(Cnf.from_clauses(2, [[1]]),
                     import_fn=lambda: pending.pop() if pending else None)
    assert res.verdict == UNSAT
    assert res.stats.imported == 1


def test_cdcl_import_shapes_model():
    pending = [(-1,)]
    res = cdcl_solve(Cnf.from_clauses(2, [[1, 2]]),
                     import_fn=lambda: pending.pop() if pending else None)
    assert res.verdict == SAT
    assert res.model[1] is False and res.model[2] is True


def test_cdcl_export_learned_clauses():
    cnf = random_3cnf(Random(21), 30, 129)
    got: list[tuple[tuple[int, ...], int]] = []
    res = cdcl_solve(cnf, seed=3,
                     export_fn=lambda lits, lbd: got.append((lits, lbd)))
    assert res.stats.exported == len(got) > 0
    for lits, lbd in got:
        assert len(lits) <= 30 and lbd >= 1
        assert list(lits) == sorted(lits, key=lambda l: (abs(l), l < 0))


def _decode(code):
    """Signed literal of a kernel literal code, 2*|lit| + (lit < 0)."""
    return -(code >> 1) if code & 1 else code >> 1


def test_cdcl_exports_canonical_signed_tuples():
    cnf = random_3cnf(Random(21), 40, 172)
    learnt_seen, exported = [], []
    s = CdclSolver(cnf, seed=3, export_max_len=None,
                   export_fn=lambda lits, lbd: exported.append(lits))
    learn = s._learn

    def recording_learn(learnt, bt, lbd):
        learnt_seen.append([_decode(c) for c in learnt])
        learn(learnt, bt, lbd)
    s._learn = recording_learn
    s.solve()
    assert len(exported) == len(learnt_seen) > 20
    for lits, learnt in zip(exported, learnt_seen):
        assert type(lits) is tuple and lits == canonical_literals(learnt)
    assert any(l < 0 for lits in exported for l in lits)
    assert any(l > 0 for lits in exported for l in lits)


# Level 0 after the formula's units: 1 true, 2 false; 3, 4, 5 free.
IMPORT_CNF = Cnf.from_clauses(5, [[1], [-2], [3, 4, 5]])


def _import_run(*clauses):
    pending = list(reversed(clauses))
    s = CdclSolver(IMPORT_CNF, CdclParams(phase="pos"),
                   import_fn=lambda: pending.pop() if pending else None)
    return s, s.solve()


def test_cdcl_import_with_negative_literals_at_level_zero():
    # Deciding positive sets 4 true unless an import says otherwise.
    _s, res = _import_run()
    assert res.verdict == SAT and res.model[4] is True
    # satisfied by -2: skipped, nothing watched or kept
    s, res = _import_run((-2, -4))
    assert res.verdict == SAT and res.model[4] is True
    assert res.stats.imported == 1 and s.learned_clauses == []
    # -1 false at level 0 leaves the unit -4: enqueued at level 0
    s, res = _import_run((-1, -4))
    assert res.verdict == SAT and res.model[4] is False
    assert s.level_a[4] == 0 and s.learned_clauses == []
    # two live literals: watched and kept as a learned clause
    s, res = _import_run((-1, -4, -5))
    assert res.verdict == SAT and not (res.model[4] and res.model[5])
    assert [len(c) for _lbd, c in s.learned_clauses] == [2]
    # every literal false at level 0: UNSAT
    s, res = _import_run((-3, -4, -5), (-1, 2))
    assert res.verdict == UNSAT and res.stats.imported == 2


def test_cdcl_export_length_gate():
    cnf = random_3cnf(Random(21), 30, 129)
    got = []
    cdcl_solve(cnf, seed=3, export_fn=lambda lits, lbd: got.append(lits),
               export_max_len=1)
    assert all(len(lits) == 1 for lits in got)


def test_cdcl_geometric_restarts_run():
    cnf = random_3cnf(Random(4), 24, 110)
    res = cdcl_solve(cnf, CdclParams(restart="geom", restart_base=4,
                                     restart_factor=1.1), seed=2)
    assert res.verdict == oracle_verdict(cnf)
    assert res.stats.restarts > 0


class LazyHeapCdcl(CdclSolver):
    """The earlier heap handling: push on every unassignment, pop until current."""

    def _backtrack(self, lvl):
        if self.dlevel <= lvl:
            return
        tl = self.trail_lim[lvl]
        for idx in range(len(self.trail) - 1, tl - 1, -1):
            lit = self.trail[idx]  # a literal code: 2*var + negated
            var = lit >> 1
            self.saved[var] = not lit & 1
            self.val[lit] = 0
            self.val[lit ^ 1] = 0
            self.reason[var] = None
            heappush(self.heap, (-self.act[var], var))
        del self.trail[tl:]
        del self.trail_lim[lvl:]
        self.qhead = tl
        self.dlevel = lvl

    def _decide(self):
        val, nv, act = self.val, self.nv, self.act
        var = 0
        p = self.params
        if p.random_freq > 0.0 and self.rng.random() < p.random_freq:
            for _ in range(8):
                cand = self.rng.randrange(1, nv + 1)
                if val[2 * cand] == 0:
                    var = cand
                    break
        if var == 0:
            while self.heap:
                a, v = heappop(self.heap)
                if val[2 * v] == 0 and -a == act[v]:
                    var = v
                    break
            if var == 0:
                self.heap = [(-act[v], v) for v in range(1, nv + 1) if val[2 * v] == 0]
                heapify(self.heap)
                a, var = heappop(self.heap)
        self.stats.decisions += 1
        self.dlevel += 1
        self.trail_lim.append(len(self.trail))
        self._enqueue(2 * var + (not self.saved[var]), None)


def _decisions(cls, cnf, params, seed, conflicts):
    solver = cls(cnf, params, seed=seed)
    picked = []
    decide = solver._decide

    def recording_decide():
        decide()
        picked.append(solver.trail[-1])
    solver._decide = recording_decide
    verdict = solver.step(conflicts)
    return picked, verdict, solver.stats


@pytest.mark.parametrize("params", [
    CDCL_PRESETS[0], CDCL_PRESETS[4], CDCL_PRESETS[12],
    replace(CDCL_PRESETS[6], decay=0.5),  # activity rescales rebuild the heap
], ids=["preset0", "preset4", "preset12", "rescale"])
def test_cdcl_heap_flags_decide_like_lazy_heap(params):
    """One heap entry per unassigned variable picks what duplicate pushes picked."""
    cnf = random_3cnf(Random(41), 150, 640)
    new = _decisions(CdclSolver, cnf, params, 7, 700)
    old = _decisions(LazyHeapCdcl, cnf, params, 7, 700)
    assert len(new[0]) > 500 and new[2].restarts > 0
    assert new == old


def assert_heap_invariant(s):
    nv = s.nv
    current = [v for a, v in s.heap if -a == s.act[v]]
    assert len(current) == len(set(current))
    assert {v for v in range(1, nv + 1) if s.in_heap[v]} == set(current)
    assert all(s.in_heap[v] for v in range(1, nv + 1) if s.val[2 * v] == 0)


def test_cdcl_heap_has_one_current_entry_per_unassigned_var():
    s = CdclSolver(random_3cnf(Random(41), 90, 420), CDCL_PRESETS[6], seed=2)
    compactions = []
    rebuild = s._rebuild_heap

    def checked_rebuild():
        over = len(s.heap) > s.heap_limit
        rebuild()
        if over:  # a compaction: exactly the unassigned variables remain
            compactions.append(len(s.heap))
            assert len(s.heap) == sum(s.val[2 * v] == 0 for v in range(1, s.nv + 1))
            assert_heap_invariant(s)
    s._rebuild_heap = checked_rebuild
    s.step(300)
    assert len(compactions) >= 2
    assert_heap_invariant(s)


@pytest.mark.parametrize("decay", [0.95, 0.99])
def test_cdcl_heap_stays_bounded(decay):
    """Stale heap entries never pile up: compaction caps the heap near 4*nv."""
    s = CdclSolver(random_3cnf(Random(43), 200, 860),
                   replace(CDCL_PRESETS[0], decay=decay), seed=5)
    # Between two decisions, one conflict pushes each variable at most once.
    bound = s.heap_limit + s.nv
    peak = 0
    while s.stats.conflicts < 3000:
        assert s.step(1) is None
        peak = max(peak, len(s.heap))
        assert len(s.heap) <= bound
    assert peak > 2 * s.nv  # stale entries did accumulate between compactions


def test_cdcl_reduce_db_keeps_watches_exact():
    s = CdclSolver(random_3cnf(Random(41), 90, 420),
                   CdclParams(reduce_base=40), seed=2)
    originals = {id(c): c for wl in s.watches for c in wl}
    while len(s.learned_clauses) <= s.reduce_limit:
        assert s.step(1) is None
    n_learned = len(s.learned_clauses)
    s._reduce_db()
    assert len(s.learned_clauses) < n_learned
    clauses = {**originals, **{id(c): c for _lbd, c in s.learned_clauses}}
    seen = Counter((id(c), w) for w, wl in enumerate(s.watches) for c in wl)
    assert {key for key, _w in seen} <= clauses.keys()
    for key, c in clauses.items():  # watch lists are indexed by literal code
        assert seen[key, c[0]] == 1 and seen[key, c[1]] == 1
    assert len(seen) == sum(seen.values()) == 2 * len(clauses)
    assert all(r is None or id(r) in clauses for r in s.reason)


def test_luby_sequence_prefix():
    assert [luby(i) for i in range(1, 16)] == \
        [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]
    for i in range(1, 7):
        assert luby(2 ** i - 1) == 2 ** (i - 1)


# ---------------------------------------------------------------------------
# local search


def test_sls_solves_easy_sat():
    rng = Random(55)
    solved = 0
    for trial in range(10):
        cnf = random_3cnf(rng, 20, 60)
        if oracle_verdict(cnf) != SAT:
            continue
        res = sls_solve(cnf, seed=trial, max_flips=300_000)
        assert res.verdict == SAT
        assert check_model(cnf, res.model)
        solved += 1
    assert solved >= 5


def test_sls_never_claims_unsat():
    res = sls_solve(php_cnf(3), max_flips=30_000)
    assert res.verdict == UNKNOWN
    assert res.model is None


def test_sls_blocked_by_preprocess_contradiction():
    cnf = Cnf.from_clauses(2, [[1], [-1], [1, 2]])
    res = sls_solve(cnf, max_flips=10_000)
    assert res.verdict == UNKNOWN


def test_sls_blocked_solver_is_never_stepped():
    cnf = Cnf.from_clauses(2, [[1], [-1], [1, 2]])
    solver = SlsSolver(cnf)
    assert solver.blocked
    steps = []
    step = solver.step
    solver.step = lambda n: steps.append(n) or step(n)
    assert drive(solver, 100, max_work=10_000) is None
    assert steps == []
    assert solver.solve(max_flips=10_000).verdict == UNKNOWN
    assert steps == [] and solver.stats.flips == 0


def _recount(s: SlsSolver):
    """True counts, true-variable sums and break counts from scratch."""
    ntrue, tsum, brk = [], [], [0] * len(s.brk)
    for cl in s.clauses:
        true_vars = [abs(l) for l in cl if s.value[abs(l)] == (l > 0)]
        ntrue.append(len(true_vars))
        tsum.append(sum(true_vars))
        if len(true_vars) == 1:
            brk[true_vars[0]] += 1
    return ntrue, tsum, brk


def test_sls_incremental_state_matches_recount():
    cnf = random_3cnf(Random(3), 60, 300)  # UNSAT: the walk never stops early
    s = SlsSolver(cnf, SlsParams(restart_flips=500), seed=5)
    restarts = 0
    for chunk in (137, 363, 1, 499, 700, 1300):
        before = s.flips_since_restart
        assert s.step(chunk) is None
        restarts += (before + chunk) // 500
        ntrue, tsum, brk = _recount(s)
        assert s.ntrue == ntrue and s.tsum == tsum and s.brk == brk
        assert sorted(s.unsat) == [ci for ci, n in enumerate(ntrue) if n == 0]
        assert all(s.unsat_pos[ci] == i for i, ci in enumerate(s.unsat))
        for v in s.vars:  # break count as an occurrence-list rescan defines it
            lit = v if s.value[v] else -v
            assert s.brk[v] == sum(1 for ci in s.occ[lit] if ntrue[ci] == 1)
    assert restarts >= 5 and s.stats.flips == 3000


def test_below_draws_like_randrange():
    for seed in (0, 1, 7, 2 ** 40 + 3):
        mine, ref = Random(seed), Random(seed)
        for n in range(1, 71):
            for _ in range(5):
                assert _below(mine.getrandbits, n) == ref.randrange(n)
        assert mine.getstate() == ref.getstate()


def test_sls_without_preprocess():
    cnf = random_3cnf(Random(8), 15, 40)
    assert oracle_verdict(cnf) == SAT
    res = sls_solve(cnf, SlsParams(preprocess=False), seed=2,
                    max_flips=300_000)
    assert res.verdict == SAT and check_model(cnf, res.model)


def test_sls_restart_path():
    cnf = random_3cnf(Random(12), 18, 55)
    if oracle_verdict(cnf) == SAT:
        res = sls_solve(cnf, SlsParams(restart_flips=500), seed=4,
                        max_flips=400_000)
        assert res.verdict in (SAT, UNKNOWN)
        if res.verdict == SAT:
            assert check_model(cnf, res.model)


def test_sls_deterministic_per_seed():
    cnf = random_3cnf(Random(3), 16, 45)

    def run():
        r = sls_solve(cnf, seed=9, max_flips=100_000)
        return (r.verdict, r.model, r.stats.flips)

    assert run() == run()


def test_sls_empty_formula():
    res = sls_solve(Cnf.from_clauses(2, []))
    assert res.verdict == SAT and set(res.model) == {1, 2}


def test_preprocess_unit_propagation():
    fixed, residual = _preprocess(Cnf.from_clauses(3, [[1], [-1, 2], [2, 3]]))
    assert fixed[1] is True and fixed[2] is True
    assert residual == []


def test_preprocess_pure_literals():
    fixed, residual = _preprocess(Cnf.from_clauses(3, [[1, 2], [1, 3]]))
    assert fixed[1] is True
    assert residual == []


def test_preprocess_contradiction():
    fixed, residual = _preprocess(Cnf.from_clauses(1, [[1], [-1]]))
    assert fixed is None and residual == []


# ---------------------------------------------------------------------------
# control cell


def test_control_transitions():
    c = SolverControl()
    assert c.state == "RUNNING"
    c.suspend()
    c.suspend()  # same-state moves are no-ops
    assert c.state == "SUSPENDED"
    c.resume()
    c.terminate()
    assert c.state == "TERMINATED"
    with pytest.raises(ValueError, match="bad transition"):
        c.resume()
    c.terminate()  # idempotent


def test_control_park_and_wake():
    c = SolverControl()
    c.suspend()
    t = threading.Thread(target=c.park_while_suspended)
    t.start()
    deadline = time.monotonic() + 2.0
    while not c.parked and time.monotonic() < deadline:
        time.sleep(0.001)
    assert c.parked
    c.resume()
    t.join(timeout=2.0)
    assert not t.is_alive() and not c.parked


def test_threaded_solver_parks_then_terminates():
    cnf = random_3cnf(Random(2), 150, 645)  # far too hard to finish quickly
    ctl = SolverControl()
    s = CdclSolver(cnf, control=ctl, seed=0)
    t = threading.Thread(target=lambda: s.solve(step_conflicts=8))
    t.start()
    time.sleep(0.05)
    ctl.suspend()
    deadline = time.monotonic() + 2.0
    while not ctl.parked and time.monotonic() < deadline:
        time.sleep(0.001)
    assert ctl.parked
    ctl.terminate()
    t.join(timeout=5.0)
    assert not t.is_alive()
    assert s.result().verdict == UNKNOWN


class ScriptedSolver:
    """Records each step budget and answers SAT on step number answer_at."""

    blocked = False

    def __init__(self, control=None, answer_at=None):
        self.control = control
        self.answer_at = answer_at
        self.steps = []

    def step(self, n):
        self.steps.append(n)
        return SAT if len(self.steps) == self.answer_at else None


def _drive_in_thread(solver, chunk):
    out = []
    t = threading.Thread(target=lambda: out.append(drive(solver, chunk)))
    t.start()
    deadline = time.monotonic() + 2.0
    while not solver.control.parked and time.monotonic() < deadline:
        time.sleep(0.001)
    assert solver.control.parked and solver.steps == []
    return t, out


def test_drive_parks_resumes_terminates_and_caps_work():
    s = ScriptedSolver()
    assert drive(s, 4, max_work=10) is None  # budget spent, no answer
    assert s.steps == [4, 4, 2]
    calls = []
    s = ScriptedSolver(answer_at=3)
    assert drive(s, 5, before_chunk=lambda: calls.append(len(s.steps))) == SAT
    assert calls == [0, 1, 2] and s.steps == [5, 5, 5]

    ctl = SolverControl()
    ctl.suspend()
    s = ScriptedSolver(ctl, answer_at=2)
    t, out = _drive_in_thread(s, 3)
    ctl.resume()
    t.join(timeout=2.0)
    assert not t.is_alive() and out == [SAT] and s.steps == [3, 3]

    ctl = SolverControl()
    ctl.suspend()
    s = ScriptedSolver(ctl)
    t, out = _drive_in_thread(s, 3)
    ctl.terminate()
    t.join(timeout=2.0)
    assert not t.is_alive() and out == [None] and s.steps == []


# ---------------------------------------------------------------------------
# import ring


def test_ring_fifo_and_len():
    r = ImportRing(16)
    assert len(r) == 0 and r.try_pop() is None
    r.try_push((1, -2))
    r.try_push((3,))
    assert len(r) == 5  # words, not records
    assert r.try_pop() == (1, -2)
    assert r.try_pop() == (3,)
    assert r.try_pop() is None


def test_ring_drop_when_full():
    r = ImportRing(4)
    assert r.try_push((1, 2, 3)) is True  # 4 words, exactly fits
    assert r.try_push((9,)) is False
    assert r.dropped == 1
    assert r.try_pop() == (1, 2, 3)
    assert r.try_push((9,)) is True


def test_ring_wraparound():
    r = ImportRing(8)
    for rounds in range(10):  # force head/tail far past the capacity
        assert r.try_push((rounds, -rounds - 1))
        assert r.try_pop() == (rounds, -rounds - 1)
    r.try_push((1,))
    r.try_push((2,))
    assert r.try_pop() == (1,)
    assert r.try_pop() == (2,)


def test_ring_matches_fifo_model_across_wraps():
    rng = Random(9)
    for cap in (4, 5, 7, 16, 33):
        ring, model, words = ImportRing(cap), deque(), 0
        for _ in range(400):
            if rng.random() < 0.55:
                lits = tuple(rng.choice([-1, 1]) * rng.randrange(1, 50)
                             for _ in range(rng.randrange(1, cap)))
                fits = words + len(lits) + 1 <= cap
                assert ring.try_push(lits) is fits
                if fits:
                    model.append(lits)
                    words += len(lits) + 1
            else:
                got = ring.try_pop()
                assert got == (model.popleft() if model else None)
                if got is not None:
                    words -= len(got) + 1
            assert len(ring) == words


def test_ring_pops_the_pushed_tuple():
    r = ImportRing(16)
    lits = (4, -7, 9)
    assert r.try_push(lits)
    assert r.try_pop() is lits


def test_ring_memory_follows_its_records():
    clauses = [(1, -2), (3, 4, -5), (6,)]
    tracemalloc.start()
    try:
        r = ImportRing(1 << 16)
        for lits in clauses:
            assert r.try_push(lits)
        held, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(r) == 9
    assert held < 16 * 1024


def test_ring_capacity_validation():
    with pytest.raises(ValueError):
        ImportRing(3)


# ---------------------------------------------------------------------------
# portfolio configs


def test_portfolio_cycle_layout():
    assert PORTFOLIO_CYCLE == 14
    for x in range(28):
        cfg = make_portfolio_config(0, 28, x)
        assert cfg.index == x
        if x % 14 == 13:
            assert cfg.kind == "sls" and cfg.cdcl is None
        else:
            assert cfg.kind == "cdcl"
            assert cfg.cdcl == CDCL_PRESETS[x % 14]


def test_portfolio_sls_preprocess_alternates():
    assert make_portfolio_config(13, 1, 0).sls.preprocess is True    # x=13
    assert make_portfolio_config(27, 1, 0).sls.preprocess is False   # x=27
    assert make_portfolio_config(41, 1, 0).sls.preprocess is True    # x=41


def test_portfolio_seeds_distinct():
    seeds = {make_portfolio_config(k, 4, i).seed
             for k in range(8) for i in range(4)}
    assert len(seeds) == 32
    a = make_portfolio_config(1, 2, 0, nonce=1).seed
    b = make_portfolio_config(1, 2, 0, nonce=2).seed
    assert a != b


def test_portfolio_index_is_global_slot():
    assert make_portfolio_config(3, 4, 2).index == 14


def test_portfolio_rejects_bad_coordinates():
    for k, t, i in ((-1, 2, 0), (0, 0, 0), (0, 2, 2), (0, 2, -1)):
        with pytest.raises(ValueError):
            make_portfolio_config(k, t, i)


def test_throttled_thread_count():
    assert throttled_thread_count(100, 1000, 4) == 4
    assert throttled_thread_count(1000, 1000, 4) == 4
    assert throttled_thread_count(2000, 1000, 4) == 2
    assert throttled_thread_count(5000, 1000, 4) == 1
    assert throttled_thread_count(10 ** 9, 1000, 4) == 1
    with pytest.raises(ValueError):
        throttled_thread_count(-1, 1000, 4)
    with pytest.raises(ValueError):
        throttled_thread_count(100, 0, 4)

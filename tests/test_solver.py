"""Solver backends: CDCL and local search against an exhaustive oracle."""
import sys
import tracemalloc
from collections import Counter, deque
from dataclasses import replace
from heapq import heapify, heappop, heappush
from itertools import accumulate
from random import Random

import pytest

from flexsat.exchange import deserialize, serialize
from flexsat.formula import Cnf, check_model
from flexsat.solver import SAT, UNSAT
from flexsat.solver import cdcl as cdcl_mod
from flexsat.solver.cdcl import _RESCALE, CdclSolver, cdcl_solve
from flexsat.solver.config import (CDCL_PRESETS, PORTFOLIO_CYCLE, CdclParams, SlsParams,
                                   make_portfolio_config, throttled_thread_count)
from flexsat.solver.ring import ImportRing
from flexsat.solver.sls import SlsSolver, _preprocess
from flexsat.util import below, luby
from helpers import clause_keys, oracle_verdict, php_cnf, rand_keys, random_3cnf, xor_chain_cnf


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
                              [*base.clause_lits(), *other.clause_lits()])
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
    assert s.verdict == UNSAT
    assert s.stats.conflicts > 0 and s.stats.learned > 0


def test_cdcl_import_falsified_unit_gives_unsat():
    pending = [clause_keys((-1,))]
    res = cdcl_solve(Cnf.from_clauses(2, [[1]]),
                     import_fn=lambda: pending.pop() if pending else None)
    assert res.verdict == UNSAT
    assert res.stats.imported == 1


def test_cdcl_import_shapes_model():
    pending = [clause_keys((-1,))]
    res = cdcl_solve(Cnf.from_clauses(2, [[1, 2]]),
                     import_fn=lambda: pending.pop() if pending else None)
    assert res.verdict == SAT
    assert res.model[1] is False and res.model[2] is True


def test_cdcl_export_learned_clauses():
    cnf = random_3cnf(Random(21), 30, 129)
    got: list[tuple[int, ...]] = []
    res = cdcl_solve(cnf, seed=3, export_fn=got.append)
    assert res.stats.exported == len(got) > 0
    for keys in got:
        assert len(keys) <= 30
        assert list(keys) == sorted(keys)


def test_cdcl_exports_sorted_key_tuples(monkeypatch):
    """An export is the learned clause's codes, sorted: its literal_key
    tuple, in canonical order, with no decoding."""
    monkeypatch.setattr(cdcl_mod, "EXPORT_MAX_LEN", 10 ** 9)  # export every learned clause
    cnf = random_3cnf(Random(21), 40, 172)
    learnt_seen, exported = [], []
    s = CdclSolver(cnf, seed=3, export_fn=exported.append)
    learn = s._learn

    def recording_learn(learnt, bt, lbd):
        learnt_seen.append(list(learnt))
        learn(learnt, bt, lbd)
    s._learn = recording_learn
    s.step(sys.maxsize)
    assert len(exported) == len(learnt_seen) > 20
    for keys, learnt in zip(exported, learnt_seen):
        assert type(keys) is tuple and keys == tuple(sorted(learnt))
    assert any(k & 1 for keys in exported for k in keys)  # a negative literal
    assert any(not k & 1 for keys in exported for k in keys)  # a positive one


# Level 0 after the formula's units: 1 true, 2 false; 3, 4, 5 free.
IMPORT_CNF = Cnf.from_clauses(5, [[1], [-2], [3, 4, 5]])


def _import_run(*clauses):
    """Solve IMPORT_CNF importing the given signed clauses as literal_key tuples."""
    pending = [clause_keys(c) for c in reversed(clauses)]
    return cdcl_solve(IMPORT_CNF, CdclParams(phase="pos"),
                      import_fn=lambda: pending.pop() if pending else None)


def test_cdcl_import_with_negative_literals_at_level_zero():
    # Deciding positive sets 4 true unless an import says otherwise.
    s = _import_run()
    assert s.verdict == SAT and s.model[4] is True
    # satisfied by -2: skipped, nothing watched or kept
    s = _import_run((-2, -4))
    assert s.verdict == SAT and s.model[4] is True
    assert s.stats.imported == 1 and s.learned_clauses == []
    # -1 false at level 0 leaves the unit -4: enqueued at level 0
    s = _import_run((-1, -4))
    assert s.verdict == SAT and s.model[4] is False
    assert s.level_a[4] == 0 and s.learned_clauses == []
    # two live literals: watched and kept as a learned clause
    s = _import_run((-1, -4, -5))
    assert s.verdict == SAT and not (s.model[4] and s.model[5])
    assert [len(c) for _lbd, c in s.learned_clauses] == [2]
    # every literal false at level 0: UNSAT
    s = _import_run((-3, -4, -5), (-1, 2))
    assert s.verdict == UNSAT and s.stats.imported == 2


def test_cdcl_export_length_gate(monkeypatch):
    monkeypatch.setattr(cdcl_mod, "EXPORT_MAX_LEN", 1)
    cnf = random_3cnf(Random(21), 30, 129)
    got = []
    cdcl_solve(cnf, seed=3, export_fn=got.append)
    assert all(len(lits) == 1 for lits in got)


def test_cdcl_geometric_restarts_run():
    cnf = random_3cnf(Random(4), 24, 110)
    res = cdcl_solve(cnf, CdclParams(restart_base=4, restart_factor=1.1), seed=2)
    assert res.verdict == oracle_verdict(cnf)
    assert res.stats.restarts > 0


# The first 12 restart lengths of each CDCL preset: restart_base times the
# Luby sequence, or restart_base grown geometrically by restart_factor.
RESTART_SCHEDULES = (
    (64, 64, 128, 64, 64, 128, 256, 64, 64, 128, 64, 64),
    (64, 64, 128, 64, 64, 128, 256, 64, 64, 128, 64, 64),
    (64, 64, 128, 64, 64, 128, 256, 64, 64, 128, 64, 64),
    (100, 120, 144, 172, 207, 248, 298, 358, 429, 515, 619, 743),
    (100, 120, 144, 172, 207, 248, 298, 358, 429, 515, 619, 743),
    (256, 256, 512, 256, 256, 512, 1024, 256, 256, 512, 256, 256),
    (32, 32, 64, 32, 32, 64, 128, 32, 32, 64, 32, 32),
    (64, 96, 144, 216, 324, 486, 729, 1093, 1640, 2460, 3690, 5535),
    (128, 128, 256, 128, 128, 256, 512, 128, 128, 256, 128, 128),
    (256, 281, 309, 340, 374, 412, 453, 498, 548, 603, 663, 730),
    (64, 64, 128, 64, 64, 128, 256, 64, 64, 128, 64, 64),
    (512, 512, 1024, 512, 512, 1024, 2048, 512, 512, 1024, 512, 512),
    (32, 41, 54, 70, 91, 118, 154, 200, 261, 339, 441, 573),
)


@pytest.mark.parametrize("preset", range(len(CDCL_PRESETS)))
def test_preset_restart_schedules_are_pinned(preset):
    """Each preset restarts by the Luby sequence unless it names a growth
    factor; the solver pins reach at most 10 restarts, so the first 12
    lengths of every preset are pinned here."""
    solver = CdclSolver(Cnf.from_clauses(1, [[1]]), CDCL_PRESETS[preset])
    lengths = []
    for r in range(12):
        solver.stats.restarts = r
        lengths.append(solver._next_restart_len())
    assert tuple(lengths) == RESTART_SCHEDULES[preset]


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


def _recording(cls, cnf, params, seed):
    """A solver that appends the literal of each decision to `picked`."""
    solver = cls(cnf, params, seed=seed)
    picked = []
    decide = solver._decide

    def recording_decide():
        decide()
        picked.append(solver.trail[-1])
    solver._decide = recording_decide
    return solver, picked


def _decisions(cls, cnf, params, seed, conflicts):
    solver, picked = _recording(cls, cnf, params, seed)
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
    for _ in range(300):  # bumps stale entries, backtracks push fresh ones
        verdict = s.step(1)
        assert_heap_invariant(s)
        if verdict is not None:
            break
    assert len(compactions) >= 2


def test_cdcl_decide_on_a_dry_heap_raises():
    """A heap with no current entry for an unassigned variable breaks the
    invariant: _decide raises instead of picking variable 0."""
    s = CdclSolver(random_3cnf(Random(41), 20, 80),
                   replace(CDCL_PRESETS[0], random_freq=0.0), seed=2)
    for heap in ([], [(-1.0, 3)]):  # empty; one stale entry
        s.heap[:] = heap
        with pytest.raises(IndexError):
            s._decide()
        assert s.stats.decisions == 0 and not s.trail_lim


@pytest.mark.parametrize("decay", [0.95, 0.99])
def test_cdcl_heap_stays_bounded(decay):
    """Stale heap entries never pile up: compaction caps the heap near 4*nv."""
    s = CdclSolver(random_3cnf(Random(43), 200, 860),
                   replace(CDCL_PRESETS[0], decay=decay), seed=5)
    # Only backtracks push, and only variables with no current entry: the
    # backtracks of one conflict (a restart's included) push each variable
    # at most once after the last decision's compaction.
    bound = s.heap_limit + s.nv
    peak = 0
    while s.stats.conflicts < 3000:
        assert s.step(1) is None
        peak = max(peak, len(s.heap))
        assert len(s.heap) <= bound
    assert peak > 2 * s.nv  # stale entries did accumulate between compactions


class ReferenceKernelCdcl(CdclSolver):
    """The kernel's earlier `_propagate` and `_analyze`, verbatim: the watch
    search loops over lits[2:], and every bump pushes a heap entry."""

    def _propagate(self) -> list[int] | None:
        val = self.val
        watches = self.watches
        trail = self.trail
        level_a = self.level_a
        reason = self.reason
        dlevel = self.dlevel
        qhead = self.qhead
        props = 0
        confl = None
        while qhead < len(trail):
            false_lit = trail[qhead] ^ 1
            qhead += 1
            wl = watches[false_lit]
            j = moved = 0  # kept watches are compacted into wl[:j]
            for lits in wl:
                if lits[0] == false_lit:
                    lits[0] = lits[1]
                    lits[1] = false_lit
                first = lits[0]
                fv = val[first]
                if fv > 0:
                    wl[j] = lits
                    j += 1
                    continue
                for k in range(2, len(lits)):
                    lk = lits[k]
                    if val[lk] >= 0:
                        lits[1] = lk
                        lits[k] = false_lit
                        watches[lk].append(lits)
                        moved += 1
                        break
                else:
                    wl[j] = lits
                    j += 1
                    if fv < 0:
                        confl = lits
                        break
                    # enqueue first, implied by this clause
                    val[first] = 1
                    val[first ^ 1] = -1
                    level_a[first >> 1] = dlevel
                    reason[first >> 1] = lits
                    trail.append(first)
                    props += 1
            if confl is not None:
                del wl[j:j + moved]  # keep the untouched tail
                break
            del wl[j:]
        self.qhead = qhead
        self.stats.propagations += props
        return confl

    def _analyze(self, confl: list[int]) -> tuple[list[int], int, int]:
        """1-UIP clause, backtrack level, LBD."""
        seen = self.seen
        level_a = self.level_a
        trail = self.trail
        act = self.act
        heap = self.heap
        in_heap = self.in_heap
        var_inc = self.var_inc
        rescale = _RESCALE
        learnt = [0]
        to_clear: list[int] = []
        counter = 0
        p = 0
        idx = len(trail) - 1
        dlevel = self.dlevel
        while True:
            lits = iter(confl)
            if p:
                next(lits)  # a reason clause holds its asserted literal first
            for q in lits:
                v = q >> 1
                if not seen[v]:
                    lv = level_a[v]
                    if lv > 0:
                        seen[v] = 1
                        to_clear.append(v)
                        a = act[v] + var_inc
                        act[v] = a
                        if a > rescale:
                            self._rescale()
                            heap = self.heap
                            var_inc = self.var_inc
                        else:
                            heappush(heap, (-a, v))
                            in_heap[v] = 1
                        if lv >= dlevel:
                            counter += 1
                        else:
                            learnt.append(q)
            while True:
                p = trail[idx]
                idx -= 1
                pv = p >> 1
                if seen[pv]:
                    break
            counter -= 1
            if counter == 0:
                break
            confl = self.reason[pv]  # type: ignore[assignment]
        learnt[0] = p ^ 1

        # local minimization: drop lits whose reason is subsumed by the rest
        if len(learnt) > 2:
            kept = [learnt[0]]
            reason = self.reason
            for q in learnt[1:]:
                r = reason[q >> 1]
                if r is not None:
                    lits = iter(r)
                    next(lits)
                    for x in lits:
                        v = x >> 1
                        if not seen[v] and level_a[v]:
                            break
                    else:
                        continue
                kept.append(q)
            learnt = kept

        if len(learnt) == 1:
            bt = 0
        else:
            mi = 1
            ml = level_a[learnt[1] >> 1]
            for i in range(2, len(learnt)):
                l = level_a[learnt[i] >> 1]
                if l > ml:
                    ml, mi = l, i
            learnt[1], learnt[mi] = learnt[mi], learnt[1]
            bt = ml
        lbd = len({level_a[q >> 1] for q in learnt})
        for v in to_clear:
            seen[v] = 0
        return learnt, bt, lbd


def _mixed_width_cnf(rng, n, widths):
    clauses = []
    for k in widths:
        vs = rng.sample(range(1, n + 1), k)
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return Cnf.from_clauses(n, clauses)


def _import_source(solver, seed):
    """Binary, ternary and 7-key tuples, three per drain; most carry a
    literal of the level-0 trail, true or false.  Nothing implies them:
    both kernels import the same clauses, and only the search is compared."""
    rng = Random(seed)
    calls = fixed = 0

    def pull():
        nonlocal calls, fixed
        calls += 1
        if calls % 4 == 0:
            return None
        width = rng.choice((2, 3, 7))
        codes = []
        if solver.trail and rng.random() < 0.6:  # drained at level 0 only
            codes.append(rng.choice(solver.trail) ^ rng.getrandbits(1))
            fixed += 1
        taken = {c >> 1 for c in codes}
        vs = rng.sample([v for v in range(1, solver.nv + 1) if v not in taken],
                        width - len(codes))
        codes += [2 * v + rng.getrandbits(1) for v in vs]
        return tuple(sorted(codes))
    return pull, lambda: fixed


def _kernel_case(name):
    """(formula, params, with an import source) of one equivalence case."""
    rng = Random(47)
    if name == "3cnf":
        return random_3cnf(rng, 150, 640), CDCL_PRESETS[0], False
    if name == "mixed":
        widths = [2] * 15 + [3] * 600 + [rng.randint(4, 9) for _ in range(150)]
        rng.shuffle(widths)
        return _mixed_width_cnf(rng, 150, widths), CDCL_PRESETS[4], False
    if name == "imports":  # restarts every 32 conflicts or so: many drains
        return random_3cnf(rng, 150, 640), CDCL_PRESETS[6], True
    return random_3cnf(rng, 150, 640), replace(CDCL_PRESETS[6], decay=0.5), False


@pytest.mark.parametrize("case", ["3cnf", "mixed", "imports", "rescale"])
def test_cdcl_kernel_searches_like_reference(case):
    """Conflict by conflict, the kernel keeps the reference's trail,
    decisions, learned clauses and watch lists (content and order)."""
    cnf, params, imports = _kernel_case(case)
    s, picks = _recording(CdclSolver, cnf, params, 9)
    r, ref_picks = _recording(ReferenceKernelCdcl, cnf, params, 9)
    if imports:
        s.import_fn, fixed = _import_source(s, 13)
        r.import_fn, _ = _import_source(r, 13)
    rescales = 0
    rescale = s._rescale

    def counted_rescale():
        nonlocal rescales
        rescales += 1
        rescale()
    s._rescale = counted_rescale
    for _ in range(700):
        verdict = s.step(1)
        assert r.step(1) == verdict
        assert s.trail == r.trail and s.trail_lim == r.trail_lim
        assert picks == ref_picks
        assert s.learned_clauses == r.learned_clauses
        assert s.watches == r.watches
        assert s.stats == r.stats
        if verdict is not None:
            break
    assert s.stats.conflicts >= 300
    assert any(len(lits) > 3 for _lbd, lits in s.learned_clauses)
    if case == "imports":
        assert s.stats.imported >= 50 and fixed() >= 20
    if case == "rescale":
        assert rescales >= 1


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
        s = SlsSolver(cnf, seed=trial)
        assert s.step(300_000) == SAT
        assert check_model(cnf, s.model)
        solved += 1
    assert solved >= 5


def test_sls_never_claims_unsat():
    s = SlsSolver(php_cnf(3))
    assert s.step(30_000) is None
    assert s.model is None and s.stats.flips == 30_000


def test_sls_blocked_by_preprocess_contradiction():
    cnf = Cnf.from_clauses(2, [[1], [-1], [1, 2]])
    assert SlsSolver(cnf).step(10_000) is None


def test_sls_blocked_solver_is_never_stepped():
    # A blocked solve makes no flip; test_never_steps_blocked_sls checks
    # that a PE never steps a blocked slot at all.
    cnf = Cnf.from_clauses(2, [[1], [-1], [1, 2]])
    solver = SlsSolver(cnf)
    assert solver.blocked
    assert solver.step(10_000) is None
    assert solver.stats.flips == 0


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


def test_below_draws_as_randrange():
    # util.below stands in for Random.randrange(n) in local search, CDCL's
    # random decisions, message jitter and request routing, and the PE graph
    # inlines it: the pins and trace digests hold only while it draws what
    # this interpreter's randrange draws.
    ns = [*range(1, 301)]
    ns += [m for k in range(1, 41) for m in (2 ** k - 1, 2 ** k, 2 ** k + 1)]
    for seed in (0, 1, 7, 2 ** 40 + 3):
        mine, ref = Random(seed), Random(seed)
        for n in ns:
            for _ in range(5):
                assert below(mine.getrandbits, n) == ref.randrange(n), (seed, n)
        assert mine.getstate() == ref.getstate()


def test_sls_without_preprocess():
    cnf = random_3cnf(Random(8), 15, 40)
    assert oracle_verdict(cnf) == SAT
    s = SlsSolver(cnf, SlsParams(preprocess=False), seed=2)
    assert s.step(300_000) == SAT and check_model(cnf, s.model)


def test_sls_restart_path():
    cnf = random_3cnf(Random(12), 18, 55)
    if oracle_verdict(cnf) == SAT:
        s = SlsSolver(cnf, SlsParams(restart_flips=500), seed=4)
        verdict = s.step(400_000)
        assert verdict in (SAT, None)
        if verdict == SAT:
            assert check_model(cnf, s.model)


def test_sls_deterministic_per_seed():
    cnf = random_3cnf(Random(3), 16, 45)

    def run():
        s = SlsSolver(cnf, seed=9)
        return (s.step(100_000), s.model, s.stats.flips)

    assert run() == run()


def test_sls_empty_formula():
    s = SlsSolver(Cnf.from_clauses(2, []))
    assert s.step(1) == SAT and set(s.model) == {1, 2}


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
# step granularity: a PE steps in slices, cdcl_solve in one step


def _outcome(solver):
    return solver.model, solver.stats, solver.rng.getstate()


@pytest.mark.parametrize("chunk", [1, 7])
@pytest.mark.parametrize("preset", [0, 5, 12])
@pytest.mark.parametrize("cnf", [php_cnf(4), random_3cnf(Random(23), 60, 250),
                                 random_3cnf(Random(21), 60, 270)],
                         ids=["php4", "sat60", "unsat60"])
def test_cdcl_outcome_independent_of_step_size(cnf, preset, chunk):
    exports = [], []
    whole = cdcl_solve(cnf, CDCL_PRESETS[preset], seed=3, export_fn=exports[0].append)
    stepped = CdclSolver(cnf, CDCL_PRESETS[preset], seed=3, export_fn=exports[1].append)
    while stepped.step(chunk) is None:
        pass
    assert stepped.verdict == whole.verdict
    assert _outcome(stepped) == _outcome(whole)
    assert exports[1] == exports[0]
    assert whole.stats.conflicts > 7


@pytest.mark.parametrize("cnf,params,verdict", [
    (random_3cnf(Random(25), 60, 270), SlsParams(restart_flips=100), SAT),
    (php_cnf(3), SlsParams(restart_flips=300, preprocess=False), None),
], ids=["sat", "unsat"])
def test_sls_outcome_independent_of_step_size(cnf, params, verdict):
    flips = 3000
    whole = SlsSolver(cnf, params, seed=4)
    assert whole.step(flips) == verdict
    stepped = SlsSolver(cnf, params, seed=4)
    for _ in range(flips):
        stepped.step(1)
    assert _outcome(stepped) == _outcome(whole)
    assert whole.stats.flips > params.restart_flips  # a restart happened


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
    for rounds in range(10):  # push far more words than the capacity in total
        assert r.try_push((rounds, -rounds - 1))
        assert r.try_pop() == (rounds, -rounds - 1)
    r.try_push((1,))
    r.try_push((2,))
    assert r.try_pop() == (1,)
    assert r.try_pop() == (2,)


def test_ring_matches_fifo_model_across_wraps():
    """ImportRing against a deque of at most cap words, a length word per
    clause: single pushes, whole serialized-then-decoded buffers through
    push_prefix, which the model pushes clause by clause, and pops.  Fill,
    drops and pop order agree after every step, also when a buffer
    overflows mid-group, at a group boundary or fits exactly."""
    rng = Random(9)
    seen = Counter()
    for cap in (4, 5, 7, 16, 33, 64):
        ring, model, words, dropped = ImportRing(cap), deque(), 0, 0

        def model_push(lits):
            nonlocal words, dropped
            fits = words + len(lits) + 1 <= cap
            if fits:
                model.append(lits)
                words += len(lits) + 1
            else:
                dropped += 1
            return fits

        for _ in range(600):
            r = rng.random()
            if r < 0.35:
                lits = tuple(rng.choice([-1, 1]) * rng.randrange(1, 50)
                             for _ in range(rng.randrange(1, cap)))
                assert ring.try_push(lits) is model_push(lits)
            elif r < 0.55:
                clauses = deserialize(serialize(rand_keys(rng, rng.randrange(0, 10),
                                                          max_var=8, max_len=4)))
                running = list(accumulate(len(keys) + 1 for keys in clauses))
                free = cap - words
                fit = sum([model_push(keys) for keys in clauses])
                assert ring.push_prefix(clauses, running) == fit
                if 0 < fit < len(clauses):
                    seen["mid_group" if len(clauses[fit - 1]) == len(clauses[fit])
                         else "boundary"] += 1
                seen["exact"] += bool(fit) and running[fit - 1] == free
            else:
                got = ring.try_pop()
                assert got == (model.popleft() if model else None)
                if got is not None:
                    words -= len(got) + 1
            assert len(ring) == words and ring.dropped == dropped
    assert min(seen[k] for k in ("mid_group", "boundary", "exact")) >= 5, seen


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
        if x % 14 == 13:
            assert isinstance(cfg.params, SlsParams)
        else:
            assert isinstance(cfg.params, CdclParams)
            assert cfg.params == CDCL_PRESETS[x % 14]


def test_portfolio_sls_preprocess_alternates():
    assert make_portfolio_config(13, 1, 0).params.preprocess is True    # x=13
    assert make_portfolio_config(27, 1, 0).params.preprocess is False   # x=27
    assert make_portfolio_config(41, 1, 0).params.preprocess is True    # x=41


def test_portfolio_seeds_distinct():
    seeds = {make_portfolio_config(k, 4, i).seed
             for k in range(8) for i in range(4)}
    assert len(seeds) == 32
    a = make_portfolio_config(1, 2, 0, nonce=1).seed
    b = make_portfolio_config(1, 2, 0, nonce=2).seed
    assert a != b


def test_portfolio_index_is_global_slot():
    # slot 2 of node 3 at t = 4 is global slot x = 14, as slot 0 of node 14 at t = 1
    assert make_portfolio_config(3, 4, 2) == make_portfolio_config(14, 1, 0)


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

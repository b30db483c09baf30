"""CDCL kernel: two-watched literals, 1-UIP learning, EVSIDS, restarts.

Built for cooperative use: step(max_conflicts) runs a bounded amount of
work and keeps all state, so the simulator can interleave many solvers
and a preempted solver stops within one conflict of the request.  Clause
import happens only at decision level 0 (restart boundaries), clause
export fires as clauses are learned.
"""
from __future__ import annotations

from heapq import heapify, heappop, heappush
from random import Random
from typing import Callable, Sequence

from ..formula import Cnf
from ..util import luby
from . import SAT, UNKNOWN, UNSAT, SolveResult, SolverStats
from .config import CdclParams
from .control import RUNNING, SolverControl, drive

ImportFn = Callable[[], "tuple[int, ...] | None"]
ExportFn = Callable[[tuple[int, ...], int], None]

_RESCALE = 1e100


class CdclSolver:
    blocked = False  # a contradiction is an UNSAT verdict, never a block

    def __init__(
        self,
        cnf: Cnf,
        params: CdclParams | None = None,
        seed: int = 0,
        control: SolverControl | None = None,
        import_fn: ImportFn | None = None,
        export_fn: ExportFn | None = None,
        export_max_len: int | None = 30,
    ):
        self.params = params or CdclParams()
        self.control = control
        self.import_fn = import_fn
        self.export_fn = export_fn
        self.export_max_len = export_max_len
        self.rng = Random(seed)
        self.stats = SolverStats()

        nv = cnf.num_vars
        self.nv = nv
        self.val = [0] * (2 * nv + 1)       # index lit+nv: 1 true, -1 false
        # A clause is its literal list, watched under its first two literals.
        self.watches: list[list[list[int]]] = [[] for _ in range(2 * nv + 1)]
        self.level_a = [0] * (nv + 1)
        self.reason: list[list[int] | None] = [None] * (nv + 1)
        self.act = [0.0] * (nv + 1)
        self.seen = bytearray(nv + 1)
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.dlevel = 0
        self.var_inc = 1.0
        # Lazy max-activity heap of (-activity, var).  An entry is current
        # while its activity equals act[var]; in_heap[var] is 1 iff var has
        # a current entry, and no second one is pushed while it has.
        self.heap: list[tuple[float, int]] = []
        self.in_heap = bytearray(nv + 1)
        self._rebuild_heap()
        self.learned_clauses: list[tuple[int, list[int]]] = []  # (lbd, clause)
        self.reduce_limit = self.params.reduce_base
        self.restart_count = 0
        self.conflicts_at_restart = 0
        self.restart_limit = self._next_restart_len()

        p = self.params.phase
        if p == "pos":
            self.saved = [True] * (nv + 1)
        elif p == "rand":
            self.saved = [bool(self.rng.getrandbits(1)) for _ in range(nv + 1)]
        else:
            self.saved = [False] * (nv + 1)

        self._done = False
        self._verdict: str | None = None
        self.model: dict[int, bool] | None = None

        # load the formula; contradictory units surface at the first step
        broken = False
        for clause in cnf.clauses:
            lits = list(clause.lits)
            if len(lits) == 1:
                lit = lits[0]
                lv = self.val[lit + nv]
                if lv < 0:
                    broken = True
                elif lv == 0:
                    self._enqueue(lit, None)
            else:
                self.watches[lits[0] + nv].append(lits)
                self.watches[lits[1] + nv].append(lits)
        if broken:
            self._finish(UNSAT)

    # -- tiny helpers ------------------------------------------------------
    def _next_restart_len(self) -> int:
        p = self.params
        if p.restart == "luby":
            return p.restart_base * luby(self.restart_count + 1)
        return min(1 << 30, int(p.restart_base * p.restart_factor ** self.restart_count))

    def _enqueue(self, lit: int, reason: list[int] | None) -> None:
        nv = self.nv
        var = lit if lit > 0 else -lit
        self.val[lit + nv] = 1
        self.val[nv - lit] = -1
        self.level_a[var] = self.dlevel
        self.reason[var] = reason
        self.trail.append(lit)

    def _rescale(self) -> None:
        """Scale every activity and the increment down; rebuild the heap."""
        inv = 1.0 / _RESCALE
        act = self.act
        for v in range(1, self.nv + 1):
            act[v] *= inv
        self.var_inc *= inv
        self._rebuild_heap()

    def _rebuild_heap(self) -> None:
        """One current entry per unassigned variable, none for the others."""
        nv = self.nv
        val = self.val
        act = self.act
        in_heap = self.in_heap
        heap = []
        for v in range(1, nv + 1):
            free = val[v + nv] == 0
            in_heap[v] = free
            if free:
                heap.append((-act[v], v))
        heapify(heap)
        self.heap = heap

    # -- propagation -------------------------------------------------------
    def _propagate(self) -> list[int] | None:
        val = self.val
        nv = self.nv
        watches = self.watches
        trail = self.trail
        level_a = self.level_a
        reason = self.reason
        dlevel = self.dlevel
        qhead = self.qhead
        props = 0
        confl = None
        while qhead < len(trail):
            false_lit = -trail[qhead]
            qhead += 1
            wl = watches[false_lit + nv]
            i = j = 0
            n_wl = len(wl)
            while i < n_wl:
                lits = wl[i]
                i += 1
                if lits[0] == false_lit:
                    lits[0] = lits[1]
                    lits[1] = false_lit
                first = lits[0]
                fv = val[first + nv]
                if fv > 0:
                    wl[j] = lits
                    j += 1
                    continue
                for k in range(2, len(lits)):
                    lk = lits[k]
                    if val[lk + nv] >= 0:
                        lits[1] = lk
                        lits[k] = false_lit
                        watches[lk + nv].append(lits)
                        break
                else:
                    wl[j] = lits
                    j += 1
                    if fv < 0:
                        confl = lits
                        break
                    # enqueue first, implied by this clause
                    val[first + nv] = 1
                    val[nv - first] = -1
                    var = first if first > 0 else -first
                    level_a[var] = dlevel
                    reason[var] = lits
                    trail.append(first)
                    props += 1
            if confl is not None:
                del wl[j:i]  # keep the untouched tail
                break
            del wl[j:]
        self.qhead = qhead
        self.stats.propagations += props
        return confl

    # -- conflict analysis -------------------------------------------------
    def _analyze(self, confl: list[int]) -> tuple[list[int], int, int]:
        """1-UIP clause, backtrack level, LBD."""
        seen = self.seen
        level_a = self.level_a
        trail = self.trail
        act = self.act
        heap = self.heap
        in_heap = self.in_heap
        var_inc = self.var_inc
        learnt = [0]
        to_clear: list[int] = []
        counter = 0
        p = 0
        idx = len(trail) - 1
        dlevel = self.dlevel
        while True:
            start = 1 if p else 0  # reason clauses hold their asserted lit first
            for q in confl[start:]:
                v = q if q > 0 else -q
                if not seen[v]:
                    lv = level_a[v]
                    if lv > 0:
                        seen[v] = 1
                        to_clear.append(v)
                        a = act[v] + var_inc
                        act[v] = a
                        if a > _RESCALE:
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
                pv = p if p > 0 else -p
                if seen[pv]:
                    break
            counter -= 1
            if counter == 0:
                break
            confl = self.reason[pv]  # type: ignore[assignment]
        learnt[0] = -p

        # local minimization: drop lits whose reason is subsumed by the rest
        if len(learnt) > 2:
            kept = [learnt[0]]
            for q in learnt[1:]:
                v = q if q > 0 else -q
                r = self.reason[v]
                if r is not None and all(
                    level_a[x if x > 0 else -x] == 0 or seen[x if x > 0 else -x]
                    for x in r[1:]
                ):
                    continue
                kept.append(q)
            learnt = kept

        if len(learnt) == 1:
            bt = 0
        else:
            mi = 1
            ml = level_a[abs(learnt[1])]
            for i in range(2, len(learnt)):
                l = level_a[abs(learnt[i])]
                if l > ml:
                    ml, mi = l, i
            learnt[1], learnt[mi] = learnt[mi], learnt[1]
            bt = ml
        lbd = len({level_a[abs(q)] for q in learnt})
        for v in to_clear:
            seen[v] = 0
        return learnt, bt, lbd

    def _learn(self, learnt: list[int], bt: int, lbd: int) -> None:
        self._backtrack(bt)
        if len(learnt) == 1:
            self._enqueue(learnt[0], None)
        else:
            nv = self.nv
            self.watches[learnt[0] + nv].append(learnt)
            self.watches[learnt[1] + nv].append(learnt)
            self.learned_clauses.append((lbd, learnt))
            self._enqueue(learnt[0], learnt)
        self.stats.learned += 1
        if (
            self.export_fn is not None
            and (self.export_max_len is None or len(learnt) <= self.export_max_len)
        ):
            # learnt holds one literal per variable, so |lit| orders it canonically
            canon = tuple(sorted(learnt, key=abs))
            self.stats.exported += 1
            self.export_fn(canon, max(1, lbd))
        self.var_inc /= self.params.decay

    def _backtrack(self, lvl: int) -> None:
        if self.dlevel <= lvl:
            return
        val = self.val
        nv = self.nv
        trail = self.trail
        tl = self.trail_lim[lvl]
        heap = self.heap
        in_heap = self.in_heap
        act = self.act
        for idx in range(len(trail) - 1, tl - 1, -1):
            lit = trail[idx]
            var = lit if lit > 0 else -lit
            self.saved[var] = lit > 0
            val[lit + nv] = 0
            val[nv - lit] = 0
            self.reason[var] = None
            if not in_heap[var]:
                heappush(heap, (-act[var], var))
                in_heap[var] = 1
        del trail[tl:]
        del self.trail_lim[lvl:]
        self.qhead = tl
        self.dlevel = lvl

    # -- restarts and DB reduction ------------------------------------------
    def _restart(self) -> None:
        self.restart_count += 1
        self.stats.restarts += 1
        self.conflicts_at_restart = self.stats.conflicts
        self.restart_limit = self._next_restart_len()
        self._backtrack(0)

    def _reduce_db(self) -> None:
        learned = self.learned_clauses
        if len(learned) <= self.reduce_limit:
            return
        reason = self.reason
        locked = {id(reason[abs(c[0])]) for _lbd, c in learned
                  if reason[abs(c[0])] is not None}
        learned.sort(key=lambda e: (e[0], len(e[1])))
        keep_n = len(learned) // 2
        nv = self.nv
        kept = []
        dropped = set()
        touched = set()
        for i, entry in enumerate(learned):
            lbd, c = entry
            if i < keep_n or lbd <= 2 or id(c) in locked:
                kept.append(entry)
            else:
                dropped.add(id(c))
                touched.add(c[0] + nv)
                touched.add(c[1] + nv)
        watches = self.watches
        for w in touched:
            watches[w] = [c for c in watches[w] if id(c) not in dropped]
        self.learned_clauses = kept
        self.reduce_limit += self.params.reduce_base // 2

    # -- import ------------------------------------------------------------
    def _import_pending(self) -> str | None:
        """Drain the import source at level 0; UNSAT on a falsified import."""
        if self.import_fn is None:
            return None
        val = self.val
        nv = self.nv
        while True:
            lits = self.import_fn()
            if lits is None:
                return None
            self.stats.imported += 1
            live = []
            satisfied = False
            for lit in lits:
                v = val[lit + nv]
                if v > 0:
                    satisfied = True
                    break
                if v == 0:
                    live.append(lit)
            if satisfied:
                continue
            if not live:
                return UNSAT  # imported clause falsified at level 0
            if len(live) == 1:
                self._enqueue(live[0], None)
            else:
                self.watches[live[0] + nv].append(live)
                self.watches[live[1] + nv].append(live)
                self.learned_clauses.append((max(1, len(live) - 1), live))

    # -- decisions ----------------------------------------------------------
    def _decide(self) -> None:
        val = self.val
        nv = self.nv
        var = 0
        p = self.params
        if p.random_freq > 0.0 and self.rng.random() < p.random_freq:
            for _ in range(8):
                cand = self.rng.randrange(1, nv + 1)
                if val[cand + nv] == 0:
                    var = cand
                    break
        if var == 0:
            heap = self.heap
            act = self.act
            in_heap = self.in_heap
            while heap:
                a, v = heappop(heap)
                if -a == act[v]:  # current entry; stale ones are dropped
                    in_heap[v] = 0
                    if val[v + nv] == 0:
                        var = v
                        break
            if var == 0:
                self._rebuild_heap()
                a, var = heappop(self.heap)
                self.in_heap[var] = 0
        self.stats.decisions += 1
        self.dlevel += 1
        self.trail_lim.append(len(self.trail))
        lit = var if self.saved[var] else -var
        self._enqueue(lit, None)

    # -- outcomes ----------------------------------------------------------
    def _finish(self, verdict: str) -> str:
        self._done = True
        self._verdict = verdict
        if verdict == SAT:
            nv = self.nv
            self.model = {v: self.val[v + nv] > 0 for v in range(1, nv + 1)}
        return verdict

    def result(self) -> SolveResult:
        return SolveResult(self._verdict or UNKNOWN, self.model, self.stats)

    # -- main loop ----------------------------------------------------------
    def step(self, max_conflicts: int) -> str | None:
        """Run up to max_conflicts conflicts; verdict string or None.

        Returns immediately when the control cell leaves RUNNING, so
        preemption latency is bounded by a single conflict.
        """
        if self._done:
            return self._verdict
        control = self.control
        budget = max_conflicts
        while True:
            if control is not None and control.state != RUNNING:
                return None
            confl = self._propagate()
            if confl is not None:
                self.stats.conflicts += 1
                budget -= 1
                if self.dlevel == 0:
                    return self._finish(UNSAT)
                learnt, bt, lbd = self._analyze(confl)
                self._learn(learnt, bt, lbd)
                if self.stats.conflicts - self.conflicts_at_restart >= self.restart_limit:
                    self._restart()
                    v = self._import_pending()
                    if v is not None:
                        return self._finish(v)
                    self._reduce_db()
                if budget <= 0:
                    return None
            else:
                if self.dlevel == 0:
                    v = self._import_pending()
                    if v is not None:
                        return self._finish(v)
                    if self.qhead < len(self.trail):
                        continue  # imports queued units; propagate them
                if len(self.trail) == self.nv:
                    return self._finish(SAT)
                self._decide()

    def solve(self, step_conflicts: int = 512) -> SolveResult:
        """Blocking solve (see control.drive); UNKNOWN if terminated first."""
        drive(self, step_conflicts)
        return self.result()


def cdcl_solve(
    cnf: Cnf,
    params: CdclParams | None = None,
    seed: int = 0,
    control: SolverControl | None = None,
    import_fn: ImportFn | None = None,
    export_fn: ExportFn | None = None,
    export_max_len: int | None = 30,
) -> SolveResult:
    """One-shot CDCL solve of a formula."""
    solver = CdclSolver(cnf, params, seed, control, import_fn, export_fn,
                        export_max_len)
    return solver.solve()

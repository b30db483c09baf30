"""CDCL kernel: two-watched literals, 1-UIP learning, EVSIDS, restarts.

Built for cooperative use: step(max_conflicts) runs a bounded amount of
work and keeps all state, so the simulator can interleave many solvers
and a preempted solver stops within one conflict of the request.  Clause
import happens only at decision level 0 (restart boundaries), clause
export fires as clauses are learned.

Inside the kernel a literal is its code 2*|lit| + (lit < 0), the
formula's literal_key (MiniSat's encoding): negation is code ^ 1, the
variable is code >> 1, and val/watches are indexed by code.  Signed
literals appear only at the boundary: formula clauses are copied from
Cnf.codes at construction, imports are encoded as they are drained,
exports are decoded, and the model is read back per variable.
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

# _decide rebuilds the decision heap once it holds more than
# HEAP_COMPACT_FACTOR * num_vars + HEAP_COMPACT_SLACK entries, mostly stale
# ones left by bumps.  The O(num_vars) rebuild changes no decision.
HEAP_COMPACT_FACTOR = 4
HEAP_COMPACT_SLACK = 64


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
        self.val = [0] * (2 * nv + 2)       # by literal code: 1 true, -1 false
        # A clause is its list of literal codes, watched under its first two.
        self.watches: list[list[list[int]]] = [[] for _ in range(2 * nv + 2)]
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
        # a current entry, and every unassigned variable has one.  Stale
        # entries are dropped when popped, or all at once by a rebuild when
        # the heap grows past heap_limit.
        self.heap: list[tuple[float, int]] = []
        self.in_heap = bytearray(nv + 1)
        self.heap_limit = HEAP_COMPACT_FACTOR * nv + HEAP_COMPACT_SLACK
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
        for code in cnf.codes:
            if len(code) == 1:
                lit = code[0]
                lv = self.val[lit]
                if lv < 0:
                    broken = True
                elif lv == 0:
                    self._enqueue(lit, None)
            else:
                lits = list(code)  # watch swaps reorder the solver's own copy
                self.watches[lits[0]].append(lits)
                self.watches[lits[1]].append(lits)
        if broken:
            self._finish(UNSAT)

    # -- tiny helpers ------------------------------------------------------
    def _next_restart_len(self) -> int:
        p = self.params
        if p.restart == "luby":
            return p.restart_base * luby(self.restart_count + 1)
        return min(1 << 30, int(p.restart_base * p.restart_factor ** self.restart_count))

    def _enqueue(self, lit: int, reason: list[int] | None) -> None:
        var = lit >> 1
        self.val[lit] = 1
        self.val[lit ^ 1] = -1
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
        val = self.val
        act = self.act
        in_heap = self.in_heap
        heap = []
        for v in range(1, self.nv + 1):
            free = val[2 * v] == 0
            in_heap[v] = free
            if free:
                heap.append((-act[v], v))
        heapify(heap)
        self.heap = heap

    # -- propagation -------------------------------------------------------
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

    def _learn(self, learnt: list[int], bt: int, lbd: int) -> None:
        self._backtrack(bt)
        if len(learnt) == 1:
            self._enqueue(learnt[0], None)
        else:
            self.watches[learnt[0]].append(learnt)
            self.watches[learnt[1]].append(learnt)
            self.learned_clauses.append((lbd, learnt))
            self._enqueue(learnt[0], learnt)
        self.stats.learned += 1
        if (
            self.export_fn is not None
            and (self.export_max_len is None or len(learnt) <= self.export_max_len)
        ):
            # code order is canonical order; decode to signed literals
            canon = tuple([-(c >> 1) if c & 1 else c >> 1 for c in sorted(learnt)])
            self.stats.exported += 1
            self.export_fn(canon, max(1, lbd))
        self.var_inc /= self.params.decay

    def _backtrack(self, lvl: int) -> None:
        if self.dlevel <= lvl:
            return
        val = self.val
        saved = self.saved
        reason = self.reason
        trail = self.trail
        tl = self.trail_lim[lvl]
        heap = self.heap
        in_heap = self.in_heap
        act = self.act
        for idx in range(len(trail) - 1, tl - 1, -1):
            lit = trail[idx]
            var = lit >> 1
            saved[var] = not lit & 1
            val[lit] = 0
            val[lit ^ 1] = 0
            reason[var] = None
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
        locked = {id(reason[c[0] >> 1]) for _lbd, c in learned
                  if reason[c[0] >> 1] is not None}
        learned.sort(key=lambda e: (e[0], len(e[1])))
        keep_n = len(learned) // 2
        kept = []
        dropped = set()
        touched = set()
        for i, entry in enumerate(learned):
            lbd, c = entry
            if i < keep_n or lbd <= 2 or id(c) in locked:
                kept.append(entry)
            else:
                dropped.add(id(c))
                touched.add(c[0])
                touched.add(c[1])
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
        while True:
            lits = self.import_fn()
            if lits is None:
                return None
            self.stats.imported += 1
            live = []
            satisfied = False
            for lit in lits:
                c = 2 * lit if lit > 0 else 1 - 2 * lit  # literal_key
                v = val[c]
                if v > 0:
                    satisfied = True
                    break
                if v == 0:
                    live.append(c)
            if satisfied:
                continue
            if not live:
                return UNSAT  # imported clause falsified at level 0
            if len(live) == 1:
                self._enqueue(live[0], None)
            else:
                self.watches[live[0]].append(live)
                self.watches[live[1]].append(live)
                self.learned_clauses.append((max(1, len(live) - 1), live))

    # -- decisions ----------------------------------------------------------
    def _decide(self) -> None:
        val = self.val
        var = 0
        p = self.params
        if p.random_freq > 0.0 and self.rng.random() < p.random_freq:
            for _ in range(8):
                cand = self.rng.randrange(1, self.nv + 1)
                if val[2 * cand] == 0:
                    var = cand
                    break
        if var == 0:
            if len(self.heap) > self.heap_limit:
                self._rebuild_heap()
            heap = self.heap
            act = self.act
            in_heap = self.in_heap
            while heap:
                a, v = heappop(heap)
                if -a == act[v]:  # current entry; stale ones are dropped
                    in_heap[v] = 0
                    if val[2 * v] == 0:
                        var = v
                        break
            if var == 0:
                self._rebuild_heap()
                a, var = heappop(self.heap)
                self.in_heap[var] = 0
        self.stats.decisions += 1
        self.dlevel += 1
        self.trail_lim.append(len(self.trail))
        self._enqueue(2 * var + (not self.saved[var]), None)

    # -- outcomes ----------------------------------------------------------
    def _finish(self, verdict: str) -> str:
        self._done = True
        self._verdict = verdict
        if verdict == SAT:
            val = self.val
            self.model = {v: val[2 * v] > 0 for v in range(1, self.nv + 1)}
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

"""WalkSAT-style stochastic local search.

A step can only ever answer SAT, with a verified model in `model`; an
unsatisfiable input just burns its flip budget.  The optional
preprocessing pass fixes variables by unit propagation and pure literals
before the walk starts, which is the diversification axis alternated
across successive local-search portfolio slots.
"""
from __future__ import annotations

from random import Random

from ..formula import Cnf, check_model
from ..util import below
from . import SAT, SolverStats
from .config import SlsParams

# Chance that a walk step flips a random variable of its clause, not a least-breaking one.
NOISE = 0.5


def _preprocess(cnf: Cnf) -> tuple[dict[int, bool] | None, list[list[int]]]:
    """Unit propagation + pure literal fixpoint.

    Returns (fixed assignment, residual clauses); fixed is None when a
    contradiction was found (the walk then never succeeds).
    """
    clauses = list(map(list, cnf.clause_lits()))
    fixed: dict[int, bool] = {}

    def assign(lit: int) -> bool:
        v = abs(lit)
        want = lit > 0
        if v in fixed:
            return fixed[v] == want
        fixed[v] = want
        return True

    changed = True
    while changed:
        changed = False
        residual = []
        for cl in clauses:
            live = []
            sat = False
            for lit in cl:
                v = abs(lit)
                if v in fixed:
                    if fixed[v] == (lit > 0):
                        sat = True
                        break
                else:
                    live.append(lit)
            if sat:
                changed = True
                continue
            if not live:
                return None, []
            if len(live) == 1:
                if not assign(live[0]):
                    return None, []
                changed = True
                continue
            if len(live) != len(cl):
                changed = True
            residual.append(live)
        clauses = residual
        # pure literals over the residual
        pol: dict[int, int] = {}
        for cl in clauses:
            for lit in cl:
                v = abs(lit)
                pol[v] = pol.get(v, 0) | (1 if lit > 0 else 2)
        for v, mask in sorted(pol.items()):
            if v not in fixed and mask != 3:
                assign(v if mask == 1 else -v)
                changed = True
    return fixed, clauses


class SlsSolver:
    """WalkSAT over the residual clauses, with incremental break counts.

    Per clause it keeps the number of true literals and the sum of the
    variables of those literals: when exactly one literal is true, that sum
    is the clause's critical variable.  brk[v] counts the clauses for which
    v is critical, i.e. the clauses that flipping v would break.  Arrays
    indexed by a literal hold 2n+1 entries, so -l indexes from the end.
    """

    blocked = False  # preprocessing found a contradiction: SAT is unreachable

    def __init__(
        self,
        cnf: Cnf,
        params: SlsParams | None = None,
        seed: int = 0,
    ):
        self.cnf = cnf
        self.params = params or SlsParams()
        self.rng = Random(seed)
        self.stats = SolverStats()
        self.model: dict[int, bool] | None = None  # set once SAT

        self.fixed: dict[int, bool] = {}
        self.clauses: list[list[int]] = []
        if not self.params.preprocess:
            self.clauses = list(map(list, cnf.clause_lits()))
        else:
            fixed, residual = _preprocess(cnf)
            if fixed is None:
                self.blocked = True
            else:
                self.fixed = fixed
                self.clauses = residual

        nv = cnf.num_vars
        self.cvars = [[abs(l) for l in cl] for cl in self.clauses]
        self.vars = sorted({v for vs in self.cvars for v in vs})
        self.occ: list[list[int]] = [[] for _ in range(2 * nv + 1)]  # literal -> clauses
        for ci, cl in enumerate(self.clauses):
            for lit in cl:
                self.occ[lit].append(ci)
        self.value = [False] * (nv + 1)       # variable -> current value
        self.ntrue = [0] * len(self.clauses)
        self.tsum = [0] * len(self.clauses)   # sum of the variables of true literals
        self.brk = [0] * (nv + 1)
        self.unsat: list[int] = []
        self.unsat_pos = [0] * len(self.clauses)
        self.flips_since_restart = 0
        if not self.blocked:
            self._random_assignment()

    # -- bookkeeping -------------------------------------------------------
    def _random_assignment(self) -> None:
        value = self.value
        getrandbits = self.rng.getrandbits
        for v in self.vars:
            value[v] = bool(getrandbits(1))
        ntrue, tsum, brk = self.ntrue, self.tsum, self.brk
        unsat, unsat_pos = self.unsat, self.unsat_pos
        unsat.clear()
        for v in self.vars:
            brk[v] = 0
        for ci, cl in enumerate(self.clauses):
            n = s = 0
            for lit in cl:
                v = lit if lit > 0 else -lit
                if value[v] == (lit > 0):
                    n += 1
                    s += v
            ntrue[ci] = n
            tsum[ci] = s
            if n == 0:
                unsat_pos[ci] = len(unsat)
                unsat.append(ci)
            elif n == 1:
                brk[s] += 1
        self.flips_since_restart = 0

    # -- main loop ---------------------------------------------------------
    def step(self, max_flips: int) -> str | None:
        """Run up to max_flips flips; SAT verdict or None.

        A flip of v moves one true literal per clause of its old literal to
        the clauses of its new one, updating true counts, sums, break counts
        and the unsat list in place.
        """
        if self.model is not None:
            return SAT
        if self.blocked:
            return None
        random = self.rng.random
        getrandbits = self.rng.getrandbits
        noise = NOISE
        restart_flips = self.params.restart_flips
        cvars, occ, value = self.cvars, self.occ, self.value
        ntrue, tsum, brk = self.ntrue, self.tsum, self.brk
        unsat, unsat_pos = self.unsat, self.unsat_pos
        above = len(self.clauses) + 1  # above every break count
        left = restart_flips - self.flips_since_restart
        flips = 0
        try:
            for _ in range(max_flips):
                if not unsat:
                    return self._finish()
                vs = cvars[unsat[below(getrandbits, len(unsat))]]
                if random() < noise:
                    v = vs[below(getrandbits, len(vs))]
                else:
                    best: list[int] = []
                    best_break = above
                    for u in vs:
                        b = brk[u]
                        if b < best_break:
                            best = [u]
                            best_break = b
                        elif b == best_break:
                            best.append(u)
                    v = best[below(getrandbits, len(best))]

                old_lit = v if value[v] else -v
                value[v] = not value[v]
                for ci in occ[old_lit]:
                    n = ntrue[ci] - 1
                    ntrue[ci] = n
                    s = tsum[ci] - v
                    tsum[ci] = s
                    if n == 0:
                        brk[v] -= 1
                        unsat_pos[ci] = len(unsat)
                        unsat.append(ci)
                    elif n == 1:
                        brk[s] += 1
                for ci in occ[-old_lit]:
                    n = ntrue[ci]
                    if n == 0:
                        brk[v] += 1
                        last = unsat.pop()
                        if last != ci:
                            pos = unsat_pos[ci]
                            unsat[pos] = last
                            unsat_pos[last] = pos
                    elif n == 1:
                        brk[tsum[ci]] -= 1
                    ntrue[ci] = n + 1
                    tsum[ci] += v

                flips += 1
                left -= 1
                if left <= 0:
                    self._random_assignment()
                    left = restart_flips
        finally:
            self.stats.flips += flips
            self.flips_since_restart = restart_flips - left
        if not unsat:
            return self._finish()
        return None

    def _finish(self) -> str:
        model = dict(self.fixed)
        value = self.value
        model.update((v, value[v]) for v in self.vars)
        for v in range(1, self.cnf.num_vars + 1):
            model.setdefault(v, False)
        assert check_model(self.cnf, model)
        self.model = model
        return SAT

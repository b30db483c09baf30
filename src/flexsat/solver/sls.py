"""WalkSAT-style stochastic local search.

Can only ever answer SAT (with a verified model) or UNKNOWN; an
unsatisfiable input just burns its flip budget.  The optional
preprocessing pass fixes variables by unit propagation and pure literals
before the walk starts, which is the diversification axis alternated
across successive local-search portfolio slots.
"""
from __future__ import annotations

from random import Random

from ..formula import Cnf, check_model
from . import SAT, UNKNOWN, SolveResult, SolverStats
from .config import SlsParams
from .control import RUNNING, SolverControl, drive


def _preprocess(cnf: Cnf) -> tuple[dict[int, bool] | None, list[list[int]]]:
    """Unit propagation + pure literal fixpoint.

    Returns (fixed assignment, residual clauses); fixed is None when a
    contradiction was found (the walk then never succeeds).
    """
    clauses = [list(c.lits) for c in cnf.clauses]
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
    def __init__(
        self,
        cnf: Cnf,
        params: SlsParams | None = None,
        seed: int = 0,
        control: SolverControl | None = None,
    ):
        self.cnf = cnf
        self.params = params or SlsParams()
        self.control = control
        self.rng = Random(seed)
        self.stats = SolverStats()
        self._done = False
        self.model: dict[int, bool] | None = None

        self.fixed: dict[int, bool] = {}
        if self.params.preprocess:
            fixed, residual = _preprocess(cnf)
            if fixed is None:
                self._blocked = True  # contradiction: SAT is unreachable
                self.clauses: list[list[int]] = []
            else:
                self._blocked = False
                self.fixed = fixed
                self.clauses = residual
        else:
            self._blocked = False
            self.clauses = [list(c.lits) for c in cnf.clauses]

        self.vars = sorted({abs(l) for cl in self.clauses for l in cl})
        self.occ: dict[int, list[int]] = {}  # literal -> clause indexes
        for ci, cl in enumerate(self.clauses):
            for lit in cl:
                self.occ.setdefault(lit, []).append(ci)
        self.assign: dict[int, bool] = {}
        self.ntrue = [0] * len(self.clauses)
        self.unsat: list[int] = []
        self.unsat_pos: dict[int, int] = {}
        self.flips_since_restart = 0
        if not self._blocked:
            self._random_assignment()

    # -- bookkeeping -------------------------------------------------------
    def _random_assignment(self) -> None:
        for v in self.vars:
            self.assign[v] = bool(self.rng.getrandbits(1))
        self.unsat = []
        self.unsat_pos = {}
        for ci, cl in enumerate(self.clauses):
            n = sum(1 for lit in cl if self._lit_true(lit))
            self.ntrue[ci] = n
            if n == 0:
                self.unsat_pos[ci] = len(self.unsat)
                self.unsat.append(ci)
        self.flips_since_restart = 0

    def _lit_true(self, lit: int) -> bool:
        return self.assign[abs(lit)] == (lit > 0)

    def _mark_sat(self, ci: int) -> None:
        pos = self.unsat_pos.pop(ci)
        last = self.unsat.pop()
        if last != ci:
            self.unsat[pos] = last
            self.unsat_pos[last] = pos

    def _mark_unsat(self, ci: int) -> None:
        self.unsat_pos[ci] = len(self.unsat)
        self.unsat.append(ci)

    def _break_count(self, v: int) -> int:
        lit = v if self.assign[v] else -v
        return sum(1 for ci in self.occ.get(lit, ()) if self.ntrue[ci] == 1)

    def _flip(self, v: int) -> None:
        old_lit = v if self.assign[v] else -v
        self.assign[v] = not self.assign[v]
        for ci in self.occ.get(old_lit, ()):
            self.ntrue[ci] -= 1
            if self.ntrue[ci] == 0:
                self._mark_unsat(ci)
        for ci in self.occ.get(-old_lit, ()):
            if self.ntrue[ci] == 0:
                self._mark_sat(ci)
            self.ntrue[ci] += 1
        self.stats.flips += 1
        self.flips_since_restart += 1

    # -- main loop ---------------------------------------------------------
    def step(self, max_flips: int) -> str | None:
        """Run up to max_flips flips; SAT verdict or None."""
        if self._done:
            return SAT
        if self._blocked:
            return None
        control = self.control
        rng = self.rng
        noise = self.params.noise
        for _ in range(max_flips):
            if control is not None and control.state != RUNNING:
                return None
            if not self.unsat:
                return self._finish()
            cl = self.clauses[self.unsat[rng.randrange(len(self.unsat))]]
            if rng.random() < noise:
                v = abs(cl[rng.randrange(len(cl))])
            else:
                best, best_break = [], None
                for lit in cl:
                    b = self._break_count(abs(lit))
                    if best_break is None or b < best_break:
                        best, best_break = [abs(lit)], b
                    elif b == best_break:
                        best.append(abs(lit))
                v = best[rng.randrange(len(best))]
            self._flip(v)
            if self.flips_since_restart >= self.params.restart_flips:
                self._random_assignment()
        if not self.unsat:
            return self._finish()
        return None

    def _finish(self) -> str:
        model = dict(self.fixed)
        model.update(self.assign)
        for v in range(1, self.cnf.num_vars + 1):
            model.setdefault(v, False)
        assert check_model(self.cnf, model)
        self.model = model
        self._done = True
        return SAT

    def result(self) -> SolveResult:
        return SolveResult(SAT if self._done else UNKNOWN, self.model, self.stats)

    def solve(self, max_flips: int = 1_000_000, step_flips: int = 10_000) -> SolveResult:
        """Blocking solve of at most max_flips flips (see control.drive).

        SAT, or UNKNOWN when the budget runs out or the solver is terminated.
        """
        drive(self, step_flips, max_work=max_flips)
        return self.result()


def sls_solve(
    cnf: Cnf,
    params: SlsParams | None = None,
    seed: int = 0,
    control: SolverControl | None = None,
    max_flips: int = 1_000_000,
) -> SolveResult:
    """One-shot local-search attempt; SAT or UNKNOWN."""
    return SlsSolver(cnf, params, seed, control).solve(max_flips)

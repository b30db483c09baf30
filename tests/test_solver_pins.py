"""Pinned solver counters: every CDCL preset and both SLS variants.

The values were recorded before the solver kernels were optimised.  A
speedup must keep each solver's RNG draws, decisions and propagations in
the same order, so every counter here stays exactly equal.  A failing
case names the preset that diverged, which the trace digests cannot.
"""
import hashlib
from dataclasses import replace
from random import Random

import pytest

from flexsat.solver.cdcl import CdclSolver
from flexsat.solver.config import CDCL_PRESETS, SlsParams
from flexsat.solver.sls import SlsSolver
from helpers import random_3cnf

FORMULAS = {
    "sat": random_3cnf(Random(29), 60, 250),     # SAT; preprocessing fixes 2 pure literals
    "unsat": random_3cnf(Random(3), 100, 470),   # UNSAT
}
# Preset 6 with a tiny reduction interval and decay 0.5: DB reductions
# and activity rescales within the budget.
STRESS = replace(CDCL_PRESETS[6], reduce_base=40, decay=0.5)
CDCL_BUDGET = 1500
SLS_BUDGET = 4000

# (verdict, conflicts, decisions, propagations, restarts, learned, learned kept)
CDCL_PINS = {
    ('sat', 0): ('SAT', 4, 21, 98, 0, 4, 4),
    ('sat', 1): ('SAT', 38, 63, 747, 0, 38, 38),
    ('sat', 2): ('SAT', 14, 28, 264, 0, 14, 14),
    ('sat', 3): ('SAT', 4, 21, 98, 0, 4, 4),
    ('sat', 4): ('SAT', 33, 52, 714, 0, 33, 33),
    ('sat', 5): ('SAT', 7, 21, 200, 0, 7, 7),
    ('sat', 6): ('SAT', 1, 16, 62, 0, 1, 1),
    ('sat', 7): ('SAT', 45, 71, 736, 0, 45, 45),
    ('sat', 8): ('SAT', 41, 68, 829, 0, 41, 41),
    ('sat', 9): ('SAT', 2, 13, 94, 0, 2, 2),
    ('sat', 10): ('SAT', 4, 21, 98, 0, 4, 4),
    ('sat', 11): ('SAT', 12, 25, 303, 0, 12, 12),
    ('sat', 12): ('SAT', 30, 50, 737, 0, 30, 30),
    ('sat', 'stress'): ('SAT', 4, 23, 98, 0, 4, 4),
    ('unsat', 0): ('UNSAT', 327, 393, 9225, 4, 326, 321),
    ('unsat', 1): ('UNSAT', 316, 389, 9179, 3, 315, 309),
    ('unsat', 2): ('UNSAT', 352, 427, 10743, 4, 351, 344),
    ('unsat', 3): ('UNSAT', 370, 445, 10642, 3, 369, 363),
    ('unsat', 4): ('UNSAT', 391, 475, 11093, 3, 390, 385),
    ('unsat', 5): ('UNSAT', 392, 448, 10813, 1, 391, 386),
    ('unsat', 6): ('UNSAT', 286, 368, 8191, 6, 285, 281),
    ('unsat', 7): ('UNSAT', 312, 369, 9150, 3, 311, 305),
    ('unsat', 8): ('UNSAT', 397, 470, 11983, 2, 396, 388),
    ('unsat', 9): ('UNSAT', 461, 560, 12653, 1, 460, 451),
    ('unsat', 10): ('UNSAT', 304, 364, 9062, 3, 303, 298),
    ('unsat', 11): ('UNSAT', 322, 360, 9304, 0, 321, 311),
    ('unsat', 12): ('UNSAT', 395, 526, 11468, 5, 394, 389),
    ('unsat', 'stress'): ('UNSAT', 538, 677, 15047, 10, 537, 160),
}

# (verdict, flips, model digest, digest of the unsat clause list), restart_flips=500
SLS_PINS = {
    ('sat', True): ('SAT', 74, '0b82ed2be4af7763', '4f53cda18c2baa0c'),
    ('sat', False): ('SAT', 272, '5507ea217a613ec3', '4f53cda18c2baa0c'),
    ('unsat', True): (None, 4000, None, '6afac7eab496dee9'),
    ('unsat', False): (None, 4000, None, '670eae4f05e88b00'),
}


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


@pytest.mark.parametrize("formula, preset", list(CDCL_PINS),
                         ids=[f"{f}-preset{p}" for f, p in CDCL_PINS])
def test_cdcl_counters_pinned(formula, preset):
    params = STRESS if preset == "stress" else CDCL_PRESETS[preset]
    seed = 1000 + (13 if preset == "stress" else preset)
    solver = CdclSolver(FORMULAS[formula], params, seed=seed)
    verdict = solver.step(CDCL_BUDGET)
    st = solver.stats
    got = (verdict, st.conflicts, st.decisions, st.propagations, st.restarts,
           st.learned, len(solver.learned_clauses))
    assert got == CDCL_PINS[formula, preset]


@pytest.mark.parametrize("formula, preprocess", list(SLS_PINS),
                         ids=[f"{f}-{'pre' if p else 'nopre'}" for f, p in SLS_PINS])
def test_sls_counters_pinned(formula, preprocess):
    solver = SlsSolver(FORMULAS[formula],
                       SlsParams(preprocess=preprocess, restart_flips=500), seed=77)
    verdict = solver.step(SLS_BUDGET)
    model = _digest(sorted(solver.model.items())) if solver.model else None
    got = (verdict, solver.stats.flips, model, _digest(list(solver.unsat)))
    assert got == SLS_PINS[formula, preprocess]

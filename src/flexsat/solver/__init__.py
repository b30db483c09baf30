"""Portfolio SAT backends: a CDCL kernel and a WalkSAT-style local search.

Both backends run cooperatively: work happens in bounded step() calls, so
a cluster interleaves all its solvers on the one thread of its event loop
under either clock, and a PE preempts a solver by not stepping it.
"""
from __future__ import annotations

from dataclasses import dataclass

SAT = "SAT"
UNSAT = "UNSAT"
UNKNOWN = "UNKNOWN"


@dataclass
class SolverStats:
    conflicts: int = 0
    propagations: int = 0
    decisions: int = 0
    restarts: int = 0
    flips: int = 0
    learned: int = 0
    exported: int = 0
    imported: int = 0


# Last: cdcl imports the names above from this package.
from .cdcl import cdcl_solve  # noqa: E402

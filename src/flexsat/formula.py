"""CNF formulas: canonical clauses, DIMACS parsing and writing, model checks.

Literals are nonzero ints (v or -v).  Clauses are canonicalized on
construction: literals sorted by (|lit|, sign) with positives first,
duplicates dropped, tautologies rejected.  Formulas are immutable after
construction so they can be shared across solver contexts without copying.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping

log = logging.getLogger(__name__)


class DimacsError(ValueError):
    """Malformed DIMACS input.  Carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ModelError(ValueError):
    """An assignment left a variable of the formula unassigned."""


def literal_key(lit: int) -> int:
    """Canonical sort key of a nonzero literal: 2*|lit| + (lit < 0).

    Orders by variable, positive literal before negative, and is injective.
    """
    return 2 * lit if lit > 0 else 1 - 2 * lit


def canonical_literals(lits: Iterable[int]) -> tuple[int, ...] | None:
    """Sorted, deduplicated literal tuple; None if the clause is a tautology."""
    seen = set()
    out = []
    for lit in lits:
        if lit == 0:
            raise ValueError("literal 0 is not allowed inside a clause")
        if -lit in seen:
            return None
        if lit not in seen:
            seen.add(lit)
            out.append(lit)
    out.sort(key=literal_key)
    return tuple(out)


@dataclass(frozen=True)
class Clause:
    """A nonempty disjunction of literals in canonical order.

    Equality and hashing are structural over the literals.
    """

    lits: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.lits:
            raise ValueError("empty clause")

    @staticmethod
    def make(lits: Iterable[int]) -> "Clause | None":
        """Canonicalize and build; returns None for tautologies."""
        canon = canonical_literals(lits)
        if canon is None:
            return None
        return Clause(canon)

    @property
    def sort_key(self) -> tuple[int, ...]:
        return tuple(literal_key(l) for l in self.lits)

    def __len__(self) -> int:
        return len(self.lits)

    def __iter__(self) -> Iterator[int]:
        return iter(self.lits)


@dataclass(frozen=True)
class Cnf:
    """An immutable CNF formula over variables 1..num_vars."""

    num_vars: int
    clauses: tuple[Clause, ...]

    @staticmethod
    def from_clauses(num_vars: int, clauses: Iterable[Iterable[int]]) -> "Cnf":
        """Build a formula from raw literal lists, dropping tautologies."""
        if num_vars < 0:
            raise ValueError("num_vars must be nonnegative")
        out = []
        for lits in clauses:
            c = Clause.make(lits)
            if c is None:
                continue
            if c.lits and abs(c.lits[-1]) > num_vars:
                raise ValueError(f"literal out of range in clause {list(lits)}")
            out.append(c)
        return Cnf(num_vars, tuple(out))

    @cached_property
    def codes(self) -> tuple[tuple[int, ...], ...]:
        """Each clause as its literal_key codes, encoded once for all solvers.

        (cached_property writes the instance __dict__, which a frozen
        dataclass without slots still has.)
        """
        return tuple([tuple([2 * l if l > 0 else 1 - 2 * l for l in c.lits])
                      for c in self.clauses])

    @property
    def serialized_size(self) -> int:
        """Size in integers of the flat serialization (lits plus one
        terminator per clause); the basis for thread throttling."""
        return sum(len(c) + 1 for c in self.clauses)

    def __len__(self) -> int:
        return len(self.clauses)


def parse_dimacs(source: str | bytes) -> Cnf:
    """Parse DIMACS CNF text.

    Comment lines (c ...) and a trailing '%' section are ignored.  A clause
    count in the header that disagrees with the body is logged as a warning
    but accepted.  Structural problems raise DimacsError with a line number.
    """
    if isinstance(source, bytes):
        source = source.decode("utf-8", errors="replace")

    num_vars: int | None = None
    declared_clauses = 0
    clauses: list[Clause] = []
    pending: list[int] = []
    pending_line = 0

    lines = source.splitlines()
    ended = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("%"):
            ended = True
            break
        if line.startswith("p"):
            if num_vars is not None:
                raise DimacsError("duplicate header", lineno)
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError(f"bad header {line!r}", lineno)
            try:
                num_vars = int(parts[2])
                declared_clauses = int(parts[3])
            except ValueError:
                raise DimacsError(f"bad header {line!r}", lineno) from None
            if num_vars < 0 or declared_clauses < 0:
                raise DimacsError("negative counts in header", lineno)
            continue
        if num_vars is None:
            raise DimacsError("clause before header", lineno)
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise DimacsError(f"bad token {tok!r}", lineno) from None
            if lit == 0:
                if not pending:
                    raise DimacsError("empty clause", lineno)
                c = Clause.make(pending)
                if c is not None:
                    clauses.append(c)
                pending = []
            else:
                if abs(lit) > num_vars:
                    raise DimacsError(f"literal {lit} out of range", lineno)
                if not pending:
                    pending_line = lineno
                pending.append(lit)
    if num_vars is None:
        raise DimacsError("no header found", len(lines) or 1)
    if pending and not ended:
        raise DimacsError("clause missing 0 terminator", pending_line)
    if pending and ended:
        raise DimacsError("clause missing 0 terminator", pending_line)
    if declared_clauses != len(clauses):
        log.warning(
            "header declared %d clauses, parsed %d (tautologies dropped?)",
            declared_clauses, len(clauses),
        )
    return Cnf(num_vars, tuple(clauses))


def write_dimacs(cnf: Cnf) -> str:
    """Render a formula back to DIMACS text (canonical clause order kept)."""
    out = [f"p cnf {cnf.num_vars} {len(cnf.clauses)}"]
    for c in cnf.clauses:
        out.append(" ".join(str(l) for l in c.lits) + " 0")
    return "\n".join(out) + "\n"


def check_model(cnf: Cnf, assignment: Mapping[int, bool]) -> bool:
    """True iff the assignment satisfies every clause.

    Raises ModelError if a variable occurring in the formula is unassigned.
    A formula with no clauses is vacuously satisfied.
    """
    for c in cnf.clauses:
        sat = False
        for lit in c.lits:
            v = abs(lit)
            if v not in assignment:
                raise ModelError(f"variable {v} unassigned")
            if assignment[v] == (lit > 0):
                sat = True
                # keep scanning so unassigned vars in this clause still error
        if not sat:
            return False
    return True

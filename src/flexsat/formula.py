"""CNF formulas: one flat literal buffer, DIMACS parsing, model checks.

Literals are nonzero ints (v or -v).  A formula is one flat tuple of
literals, each clause followed by a 0, as Mallob ships formulas.  Clauses
are canonicalized on the way in: literals sorted by (|lit|, sign) with
positives first, duplicates dropped, tautologies rejected.  Formulas are
immutable after construction so they can be shared across solver contexts
without copying.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from operator import eq, neg
from typing import Iterable, Iterator, Mapping, NoReturn, Sequence

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
    """Sorted, deduplicated literal tuple; None if the clause is a tautology.

    Once duplicates and complementary pairs are gone each variable occurs
    once, so sorting by |lit| is exactly literal_key order.
    """
    s = set(lits)
    if 0 in s:
        raise ValueError("literal 0 is not allowed inside a clause")
    if not s.isdisjoint(map(neg, s)):
        return None
    return tuple(sorted(s, key=abs))


@dataclass(frozen=True)
class Clause:
    """One clause's canonical literals, as Cnf.clauses yields them."""

    lits: tuple[int, ...]


@dataclass(frozen=True)
class Cnf:
    """An immutable CNF formula over variables 1..num_vars.

    lits holds every clause's canonical literals followed by a 0, in
    clause order; num_clauses counts the clauses.  Build one with
    parse_dimacs or from_clauses.
    """

    num_vars: int
    lits: tuple[int, ...]
    num_clauses: int

    @staticmethod
    def from_clauses(num_vars: int, clauses: Iterable[Iterable[int]]) -> "Cnf":
        """Build a formula from raw literal lists, dropping tautologies."""
        if num_vars < 0:
            raise ValueError("num_vars must be nonnegative")
        buf: list[int] = []
        count = 0
        for lits in clauses:
            canon = canonical_literals(lits)
            if canon is None:
                continue
            if not canon:
                raise ValueError("empty clause")
            if abs(canon[-1]) > num_vars:
                raise ValueError(f"literal out of range in clause {list(canon)}")
            buf += canon
            buf.append(0)
            count += 1
        return Cnf(num_vars, tuple(buf), count)

    def clause_lits(self) -> Iterator[tuple[int, ...]]:
        """Each clause's literals, in clause order."""
        return _runs(self.lits, self.num_clauses, 0)

    @property
    def clauses(self) -> tuple[Clause, ...]:
        """The clauses as Clause objects, built on each read."""
        return tuple([Clause(c) for c in self.clause_lits()])

    @cached_property
    def codes(self) -> tuple[tuple[int, ...], ...]:
        """Each clause as its literal_key codes, encoded once for all solvers.

        (cached_property writes the instance __dict__, which a frozen
        dataclass without slots still has.)
        """
        # literal_key per literal; a 0 terminator becomes 1, which is no code
        flat = [2 * l if l > 0 else 1 - 2 * l for l in self.lits]
        return tuple(map(tuple, _runs(flat, self.num_clauses, 1)))

    @property
    def serialized_size(self) -> int:
        """Size in integers of the flat buffer (literals plus one 0 per
        clause); the basis for thread throttling."""
        return len(self.lits)

    def __len__(self) -> int:
        return self.num_clauses


def _runs(buf: Sequence[int], count: int, end: int) -> Iterator[Sequence[int]]:
    """The first count runs of buf, each cut off at an item equal to end."""
    start = 0
    index = buf.index
    for _ in range(count):
        stop = index(end, start)
        yield buf[start:stop]
        start = stop + 1


def parse_dimacs(source: str | bytes) -> Cnf:
    """Parse DIMACS CNF text.

    Comment lines (c ...) and a trailing '%' section are ignored.  A clause
    count in the header that disagrees with the body is logged as a warning
    but accepted.  Structural problems raise DimacsError with a line number.

    One pass over the lines finds the header and the clause lines; the
    clause lines are tokenized, each distinct token is converted and
    range-checked once, and the literals are cut into clauses at their
    zeros and sorted by variable.  Only a formula with a repeated variable
    or an empty clause is rebuilt clause by clause, and only rejected input
    is scanned again, line by line, to name the first fault.
    """
    if isinstance(source, bytes):
        source = source.decode("utf-8", errors="replace")
    lines = source.splitlines()

    num_vars: int | None = None
    declared = 0
    body: list[str] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        head = line[0]
        if head == "c":
            continue
        if head == "%":
            break
        if head != "p" and num_vars is not None:
            body.append(line)
        elif head == "p" and num_vars is None:
            num_vars, declared = _read_header(line, lineno)
        else:
            _raise_first_fault(lines)  # a clause before the header, or a second header
    if num_vars is None:
        _raise_first_fault(lines)  # no header

    words = " ".join(body).split()
    try:
        value = {w: int(w) for w in set(words)}
    except ValueError:
        _raise_first_fault(lines)
    toks = list(map(value.__getitem__, words))
    if toks and (toks[-1] or max(value.values()) > num_vars
                 or -min(value.values()) > num_vars):
        _raise_first_fault(lines)
    zeros = toks.count(0)
    buf: list[int] = []
    for lits in _runs(toks, zeros, 0):
        lits.sort(key=abs)  # a fresh slice of toks
        buf += lits
        buf.append(0)
    # Sorted by variable, a clause's repeated variable sits next to its
    # twin, and an empty clause leaves a 0 first or two 0s in a row: one
    # pass over the variables, behind a leading 0, finds both.
    var = [0]
    var += map(abs, buf)
    if any(map(eq, var, islice(var, 1, None))):
        # Rare: rebuild clause by clause, dropping duplicates and tautologies.
        try:
            cnf = Cnf.from_clauses(num_vars, _runs(toks, zeros, 0))
        except ValueError:
            _raise_first_fault(lines)  # an empty clause
    else:
        cnf = Cnf(num_vars, tuple(buf), zeros)
    if declared != cnf.num_clauses:
        log.warning("header declared %d clauses, parsed %d (tautologies dropped?)",
                    declared, cnf.num_clauses)
    return cnf


def _read_header(line: str, lineno: int) -> tuple[int, int]:
    """(num_vars, declared clause count) of a 'p cnf' line."""
    parts = line.split()
    if len(parts) != 4 or parts[1] != "cnf":
        raise DimacsError(f"bad header {line!r}", lineno)
    try:
        num_vars = int(parts[2])
        declared = int(parts[3])
    except ValueError:
        raise DimacsError(f"bad header {line!r}", lineno) from None
    if num_vars < 0 or declared < 0:
        raise DimacsError("negative counts in header", lineno)
    return num_vars, declared


def _raise_first_fault(lines: list[str]) -> NoReturn:
    """Raise for rejected input's first fault, in line order; builds nothing."""
    num_vars: int | None = None
    open_line = 0  # line of the open clause's first literal; 0 if none is open
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("%"):
            break
        if line.startswith("p"):
            if num_vars is not None:
                raise DimacsError("duplicate header", lineno)
            num_vars = _read_header(line, lineno)[0]
            continue
        if num_vars is None:
            raise DimacsError("clause before header", lineno)
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise DimacsError(f"bad token {tok!r}", lineno) from None
            if lit == 0:
                if not open_line:
                    raise DimacsError("empty clause", lineno)
                open_line = 0
            elif abs(lit) > num_vars:
                raise DimacsError(f"literal {lit} out of range", lineno)
            elif not open_line:
                open_line = lineno
    if num_vars is None:
        raise DimacsError("no header found", len(lines) or 1)
    if open_line:
        raise DimacsError("clause missing 0 terminator", open_line)
    raise AssertionError("rejected DIMACS input has no fault")


def check_model(cnf: Cnf, assignment: Mapping[int, bool]) -> bool:
    """True iff the assignment satisfies every clause.

    Raises ModelError if a variable occurring in the formula is unassigned.
    A formula with no clauses is vacuously satisfied.
    """
    sat = False
    for lit in cnf.lits:
        if not lit:  # a clause ends
            if not sat:
                return False
            sat = False
            continue
        v = abs(lit)
        if v not in assignment:
            raise ModelError(f"variable {v} unassigned")
        if assignment[v] == (lit > 0):
            sat = True
            # keep scanning so unassigned vars in this clause still error
    return True

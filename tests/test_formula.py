"""Formula layer: canonicalization, DIMACS round trips, model checking."""
import pytest
from random import Random

from flexsat.formula import (Clause, Cnf, DimacsError, ModelError,
                             canonical_literals, check_model, literal_key,
                             parse_dimacs, write_dimacs)
from helpers import oracle_model, random_3cnf


def test_literal_key_orders_positive_first():
    lits = [3, -3, -1, 2, 1]
    assert sorted(lits, key=literal_key) == [1, -1, 2, 3, -3]


def test_literal_key_int_sorts_like_variable_then_sign():
    lits = [l for v in range(1, 60) for l in (v, -v)]
    Random(2).shuffle(lits)
    assert (sorted(lits, key=literal_key)
            == sorted(lits, key=lambda l: (abs(l), l < 0)))
    assert [literal_key(l) for l in (1, -1, 2, -2, 7, -7)] == [2, 3, 4, 5, 14, 15]
    assert len({literal_key(l) for l in lits}) == len(lits)


def test_canonical_literals_dedup_and_sort():
    assert canonical_literals([4, -2, 4, 1, -2]) == (1, -2, 4)


def test_canonical_literals_tautology():
    assert canonical_literals([1, -2, -1]) is None


def test_canonical_literals_rejects_zero():
    with pytest.raises(ValueError):
        canonical_literals([1, 0, 2])


def test_clause_make_canonicalizes():
    c = Clause.make([5, -3, 5, 2])
    assert c.lits == (2, -3, 5)
    assert len(c) == 3
    assert list(c) == [2, -3, 5]


def test_clause_make_tautology_none():
    assert Clause.make([1, -1]) is None


def test_clause_empty_rejected():
    with pytest.raises(ValueError):
        Clause(())


def test_clause_equality_ignores_lbd():
    assert Clause.make([1, 2], lbd=2) == Clause.make([2, 1], lbd=7)
    assert hash(Clause.make([1, 2], lbd=2)) == hash(Clause.make([1, 2]))


def test_cnf_from_clauses_drops_tautologies_and_range_checks():
    cnf = Cnf.from_clauses(3, [[1, -1], [2, 3]])
    assert len(cnf) == 1
    with pytest.raises(ValueError):
        Cnf.from_clauses(2, [[1, 3]])


def test_serialized_size():
    cnf = Cnf.from_clauses(4, [[1, 2, 3], [-4], [2, -3]])
    assert cnf.serialized_size == 4 + 2 + 3


DIMACS_OK = """\
c sample instance
p cnf 4 3
1 -2 0
c inline comment
2 3 -4 0
4 0
"""


def test_parse_dimacs_basic():
    cnf = parse_dimacs(DIMACS_OK)
    assert cnf.num_vars == 4
    assert [c.lits for c in cnf.clauses] == [(1, -2), (2, 3, -4), (4,)]


def test_parse_dimacs_bytes_input():
    cnf = parse_dimacs(DIMACS_OK.encode())
    assert cnf.num_vars == 4


def test_parse_dimacs_clause_spanning_lines():
    cnf = parse_dimacs("p cnf 3 1\n1\n2 3\n0\n")
    assert [c.lits for c in cnf.clauses] == [(1, 2, 3)]


def test_parse_dimacs_percent_trailer():
    cnf = parse_dimacs("p cnf 2 1\n1 2 0\n%\n0\nnoise after end\n")
    assert len(cnf.clauses) == 1


def test_parse_dimacs_duplicate_header():
    with pytest.raises(DimacsError) as e:
        parse_dimacs("p cnf 2 1\np cnf 2 1\n1 0\n")
    assert e.value.line == 2
    assert "duplicate header" in str(e.value)


def test_parse_dimacs_clause_before_header():
    with pytest.raises(DimacsError) as e:
        parse_dimacs("1 2 0\np cnf 2 1\n")
    assert e.value.line == 1


def test_parse_dimacs_bad_token():
    with pytest.raises(DimacsError) as e:
        parse_dimacs("p cnf 2 1\n1 x 0\n")
    assert "bad token" in str(e.value)


def test_parse_dimacs_literal_out_of_range():
    with pytest.raises(DimacsError) as e:
        parse_dimacs("p cnf 2 1\n1 7 0\n")
    assert "out of range" in str(e.value)


def test_parse_dimacs_missing_terminator():
    with pytest.raises(DimacsError) as e:
        parse_dimacs("p cnf 3 1\n1 2 3\n")
    assert "0 terminator" in str(e.value)
    assert e.value.line == 2


def test_parse_dimacs_no_header():
    with pytest.raises(DimacsError):
        parse_dimacs("c only a comment\n")


def test_parse_dimacs_bad_header_variants():
    for text in ("p dnf 2 1\n", "p cnf 2\n", "p cnf two 1\n", "p cnf -1 2\n"):
        with pytest.raises(DimacsError):
            parse_dimacs(text)


def test_parse_dimacs_count_mismatch_accepted(caplog):
    with caplog.at_level("WARNING"):
        cnf = parse_dimacs("p cnf 2 5\n1 2 0\n")
    assert len(cnf.clauses) == 1


def test_write_parse_roundtrip_random():
    rng = Random(11)
    for _ in range(25):
        cnf = random_3cnf(rng, rng.randrange(5, 30), rng.randrange(5, 60))
        again = parse_dimacs(write_dimacs(cnf))
        assert again.num_vars == cnf.num_vars
        assert [c.lits for c in again.clauses] == [c.lits for c in cnf.clauses]


def test_check_model_satisfying():
    cnf = parse_dimacs(DIMACS_OK)
    model = oracle_model(cnf)
    assert model is not None
    assert check_model(cnf, model) is True


def test_check_model_falsifying():
    cnf = Cnf.from_clauses(2, [[1], [-2]])
    assert check_model(cnf, {1: True, 2: True}) is False


def test_check_model_unassigned_raises():
    cnf = Cnf.from_clauses(2, [[1, 2]])
    with pytest.raises(ModelError):
        check_model(cnf, {1: True})  # 2 unassigned even though clause is sat


def test_check_model_empty_formula_vacuous():
    assert check_model(Cnf.from_clauses(3, []), {}) is True

"""Formula layer: canonicalization, DIMACS round trips, model checking."""
import sys
import tracemalloc
from collections import Counter
from random import Random

import pytest

from flexsat import formula as formula_mod
from flexsat.formula import (Clause, Cnf, DimacsError, ModelError,
                             canonical_literals, check_model, literal_key,
                             parse_dimacs)
from flexsat.solver.cdcl import CdclSolver
from helpers import oracle_model, oracle_parse_dimacs, random_3cnf, write_dimacs


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


def test_cnf_codes_are_literal_keys_shared_by_solvers():
    cnf = random_3cnf(Random(5), 40, 170)
    codes = cnf.codes
    assert cnf.codes is codes  # encoded once
    assert codes == tuple(tuple(map(literal_key, c)) for c in cnf.clause_lits())
    snapshot = [tuple(c) for c in codes]
    a, b = CdclSolver(cnf, seed=1), CdclSolver(cnf, seed=2)
    lists_a = {id(c) for wl in a.watches for c in wl}
    lists_b = {id(c) for wl in b.watches for c in wl}
    assert lists_a and not lists_a & lists_b
    assert a.step(sys.maxsize) == b.step(sys.maxsize)
    assert cnf.codes is codes and list(codes) == snapshot
    assert Cnf(cnf.num_vars, cnf.lits, cnf.num_clauses) == cnf  # the cache is not a field


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
    assert list(cnf.clause_lits()) == [(1, -2), (2, 3, -4), (4,)]


def test_parse_dimacs_bytes_input():
    cnf = parse_dimacs(DIMACS_OK.encode())
    assert cnf.num_vars == 4


def test_parse_dimacs_clause_spanning_lines():
    cnf = parse_dimacs("p cnf 3 1\n1\n2 3\n0\n")
    assert list(cnf.clause_lits()) == [(1, 2, 3)]


def test_parse_dimacs_percent_trailer():
    cnf = parse_dimacs("p cnf 2 1\n1 2 0\n%\n0\nnoise after end\n")
    assert len(cnf) == 1


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
    assert len(cnf) == 1


def test_write_parse_roundtrip_random():
    rng = Random(11)
    for _ in range(25):
        cnf = random_3cnf(rng, rng.randrange(5, 30), rng.randrange(5, 60))
        again = parse_dimacs(write_dimacs(cnf))
        assert again.num_vars == cnf.num_vars
        assert list(again.clause_lits()) == list(cnf.clause_lits())


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


# ---------------------------------------------------------------------------
# the flat buffer against the earlier line scanner

FORMS = ("comment", "blank", "tab", "crlf", "multi", "span", "duplicate",
         "tautology", "trailer", "latin1")
FAULTS = ("bad token", "out of range", "empty clause", "0 terminator",
          "clause before header", "duplicate header", "bad header",
          "negative counts", "no header")


def _dimacs_case(rng: Random) -> tuple[str | bytes, set[str]]:
    """A seeded DIMACS text, with at most one injected fault, and its forms."""
    forms: set[str] = set()
    nv = rng.randint(1, 9)
    clauses = []
    for _ in range(rng.randint(0, 8)):
        lits = [rng.choice((1, -1)) * rng.randint(1, nv) for _ in range(rng.randint(1, 5))]
        if rng.random() < 0.15:
            lits.insert(rng.randrange(len(lits) + 1), lits[0])
        elif rng.random() < 0.1:
            lits.insert(rng.randrange(len(lits) + 1), -lits[0])
        if len(set(lits)) < len(lits):
            forms.add("duplicate")
        if any(-l in lits for l in lits):
            forms.add("tautology")
        clauses.append(lits)
    fault = rng.choice(FAULTS) if rng.random() < 0.5 else None

    tokens = [str(l) for c in clauses for l in (*c, 0)]
    if fault == "bad token":
        tokens.insert(rng.randrange(len(tokens) + 1),
                      rng.choice(("x", "1.5", "--2", "0x1", "1e3", "-", "2-")))
    elif fault == "out of range":
        tokens.insert(rng.randrange(len(tokens) + 1),
                      str(rng.choice((1, -1)) * rng.randint(nv + 1, nv + 9)))
    elif fault == "empty clause":
        bounds = [0] + [i + 1 for i, t in enumerate(tokens) if t == "0"]
        tokens.insert(rng.choice(bounds), rng.choice(("0", "-0", "00")))
    elif fault == "0 terminator":
        tokens += [str(rng.randint(1, nv)) for _ in range(rng.randint(1, 2))]

    # Cut the token stream into lines: breaks fall after terminators and
    # inside clauses, so lines hold several clauses and clauses span lines.
    body: list[str] = []
    line: list[str] = []
    zeros = 0
    for tok in tokens:
        line.append(tok)
        zeros += tok == "0"
        if rng.random() < (0.5 if tok == "0" else 0.12):
            if tok != "0":
                forms.add("span")
            if zeros > 1:
                forms.add("multi")
            body.append(_join(rng, line, forms))
            line, zeros = [], 0
    if line:
        if zeros > 1:
            forms.add("multi")
        body.append(_join(rng, line, forms))

    m = len(clauses) + rng.choice((0, 0, 0, 1, -1))
    header = f"p cnf {nv} {max(m, 0)}"
    if fault == "bad header":
        header = rng.choice((f"p dnf {nv} {m}", f"p cnf {nv}", f"p cnf x {m}", "p",
                             f"pcnf {nv} {m}", f"p cnf {nv} {m} 7", f"p cnf {nv} 1.0"))
    elif fault == "negative counts":
        header = rng.choice((f"p cnf -{nv} {m}", f"p cnf {nv} -1"))
    elif fault == "duplicate header":
        body.insert(rng.randrange(len(body) + 1), header)
    lines = [header] + body
    if fault == "clause before header":
        if not body:
            lines.append(f"{rng.randint(1, nv)} 0")
        lines.insert(rng.randint(1, len(lines) - 1), lines.pop(0))  # past a clause line
    elif fault == "no header":
        lines = [] if rng.random() < 0.5 else body

    for _ in range(rng.randint(0, 3)):
        forms.add("comment")
        lines.insert(rng.randrange(len(lines) + 1),
                     rng.choice(("c", "c a comment", "  c indented", "cnf 1 0", "c\t0 x")))
    for _ in range(rng.randint(0, 2)):
        forms.add("blank")
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(("", "  ", "\t")))
    if rng.random() < 0.2:
        forms.add("trailer")
        lines += ["%", "0"] + rng.sample(["", "junk x", "p cnf 1 1", "1 2"], 2)
    latin1 = rng.random() < 0.15
    if latin1:
        forms.add("latin1")
        lines.insert(rng.randrange(len(lines) + 1), "c cafe-latin1")
    eol = "\r\n" if rng.random() < 0.3 else "\n"
    if eol == "\r\n":
        forms.add("crlf")
    text = eol.join(lines) + rng.choice((eol, ""))
    if latin1:
        return text.encode("utf-8").replace(b"cafe-latin1", b"caf\xe9"), forms
    return text, forms


def _join(rng: Random, tokens: list[str], forms: set[str]) -> str:
    if rng.random() < 0.2:
        forms.add("tab")
        return rng.choice(("\t", "")) + "\t".join(tokens)
    return rng.choice(("", " ")) + " ".join(tokens)


def test_parse_dimacs_matches_the_line_scanner():
    rng = Random(1919)
    forms: Counter = Counter()
    faults: Counter = Counter()
    for _ in range(2400):
        source, used = _dimacs_case(rng)
        try:
            num_vars, clauses = oracle_parse_dimacs(source)
        except DimacsError as want:
            with pytest.raises(DimacsError) as got:
                parse_dimacs(source)
            assert (str(got.value), got.value.line) == (str(want), want.line), source
            faults[next(kind for kind in FAULTS if kind in str(want))] += 1
            continue
        cnf = parse_dimacs(source)
        assert cnf.num_vars == num_vars
        assert cnf.lits == tuple(l for c in clauses for l in (*c, 0)), source
        assert cnf.num_clauses == len(cnf) == len(clauses)
        assert tuple(cnf.clause_lits()) == clauses
        forms.update(used)
    assert [f for f in FORMS if forms[f] < 10] == []
    assert [f for f in FAULTS if faults[f] < 10] == []


def test_parse_dimacs_canonicalizes_no_clause_of_a_clean_formula(monkeypatch):
    rng = Random(23)
    clauses = [[v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 61), 3)]
               for _ in range(250)]
    text = "p cnf 60 250\n" + "".join(" ".join(map(str, c)) + " 0\n" for c in clauses)

    def refuse(lits):
        raise AssertionError(f"canonical_literals({lits}) on a clean formula")
    with monkeypatch.context() as m:
        m.setattr(formula_mod, "canonical_literals", refuse)
        cnf = parse_dimacs(text)
    assert cnf == Cnf.from_clauses(60, clauses)


@pytest.mark.parametrize("body, clauses", [
    ("2 -1 2 0\n3 -2 0\n-3 1 0\n", [[2, -1], [3, -2], [-3, 1]]),  # first clause
    ("2 -1 0\n3 -2 0\n-3 1 -3 0\n", [[2, -1], [3, -2], [-3, 1]]),  # last clause
    ("2 -1 0\n3 -2\n-2 3 0\n1 0\n", [[2, -1], [3, -2], [1]]),  # across two lines
    ("2 -1 0\n3 1 -3 0\n-2 0\n", [[2, -1], [-2]]),  # a tautology
])
def test_parse_dimacs_repeated_variable_is_canonicalized(body, clauses):
    assert parse_dimacs("p cnf 3 3\n" + body) == Cnf.from_clauses(3, clauses)


def test_parse_dimacs_first_clause_bare_zero():
    with pytest.raises(DimacsError) as err:
        parse_dimacs("p cnf 3 2\n0\n1 -2 0\n")
    assert (str(err.value), err.value.line) == ("line 2: empty clause", 2)


def _oracle_outcome(source: str):
    """What oracle_parse_dimacs gives, and what parse_dimacs gives, as
    comparable values: (num_vars, clauses) or (message, line)."""
    try:
        want = oracle_parse_dimacs(source)
    except DimacsError as err:
        want = (str(err), err.line)
    try:
        cnf = parse_dimacs(source)
        got = (cnf.num_vars, tuple(cnf.clause_lits()))
    except DimacsError as err:
        got = (str(err), err.line)
    return got, want


def test_parse_dimacs_converts_each_spelling_as_the_scanner_does():
    # The parser converts each distinct token once: 3, 03 and +3 are three
    # tokens for one literal, and 0, -0 and 00 all end a clause.
    text = ("p cnf 3 5\n3 -1 0\n03 +2 -0\n+3 -2 00\n-03 1 0\n"
            "3 +3 03 -2 0\n")
    got, want = _oracle_outcome(text)
    assert got == want == (3, ((-1, 3), (2, 3), (-2, 3), (1, -3), (-2, 3)))
    # A rejected token is named where it first occurs in the text, whatever
    # order the distinct tokens are converted or range-checked in.
    for body in ("1 x 0\n2 0\nx 0\n", "1 y 0\n2 x 0\nx y 0\n", "1 x 0\n2 y 0\ny x 0\n",
                 "1 4 0\n2 0\n4 0\n", "1 -5 0\n4 0\n-5 4 0\n", "1 4 0\n-5 0\n4 -5 0\n",
                 "1 04 0\n+4 0\n"):
        got, want = _oracle_outcome("c faults\np cnf 3 3\n" + body)
        assert got == want and want[1] == 3, body


def test_clauses_view_is_the_scanner_clause_tuple():
    text = write_dimacs(random_3cnf(Random(8), 30, 120))
    cnf = parse_dimacs(text)
    assert cnf.clauses == tuple(map(Clause, oracle_parse_dimacs(text)[1]))
    assert all(type(c) is Clause for c in cnf.clauses)
    assert "clauses" not in vars(cnf)  # a view, never cached


def test_cnf_is_hashable_and_equal_by_value():
    a = parse_dimacs(DIMACS_OK)
    b = Cnf.from_clauses(4, [[-2, 1, 1], [2, -4, 3], [4], [3, -3]])
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a.codes and a == b and hash(a) == hash(b)  # the cache is not a field
    assert a.lits == (1, -2, 0, 2, 3, -4, 0, 4, 0)
    assert a.serialized_size == len(a.lits) == 9
    assert a != Cnf.from_clauses(5, [[1, -2], [2, 3, -4], [4]])
    assert a != Cnf.from_clauses(4, [[2, 3, -4], [1, -2], [4]])  # clause order counts


def test_parsed_formula_is_one_small_buffer():
    rng = Random(3)
    lines = ["p cnf 90 450"]
    for _ in range(450):
        vs = rng.sample(range(1, 91), 3)
        lines.append(" ".join(str(v if rng.random() < 0.5 else -v) for v in vs) + " 0")
    text = "\n".join(lines) + "\n"
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cnf = parse_dimacs(text)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert cnf.num_clauses == 450 and cnf.serialized_size == 1800
    assert held < 48 * 1024, held

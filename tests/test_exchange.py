"""Clause exchange: buffer limits, flat codec, merging, duplicate filters."""
from fractions import Fraction
from operator import lt
from random import Random

import pytest

from flexsat.exchange import (_LEN_MIX, _LEN_SALT, BufferFormatError, ClauseFilter,
                              ExchangeConfig, LiteralMix, _stream, _write, buffer_from_bytes,
                              buffer_limit, buffer_to_bytes, commutative_hash,
                              deserialize, merge, serialize)
from flexsat.formula import Clause, literal_key
from flexsat.util import mix64
from helpers import limit_oracle, merge_oracle


def rand_clauses(rng: Random, count: int, max_var: int = 40,
                 max_len: int = 6) -> list[Clause]:
    out = []
    for _ in range(count):
        k = rng.randrange(1, max_len + 1)
        vs = rng.sample(range(1, max_var + 1), k)
        out.append(Clause.make([v if rng.random() < 0.5 else -v for v in vs]))
    return out


# ---------------------------------------------------------------------------
# config


def test_config_validate_ok():
    ExchangeConfig().validate()


@pytest.mark.parametrize("field,value,msg", [
    ("alpha", 0.49, "alpha out of"),
    ("alpha", 1.01, "alpha out of"),
    ("beta", 0, "beta"),
    ("share_period_s", 0.0, "share period"),
    ("export_max_len", 0, "export_max_len"),
])
def test_config_validate_rejects(field, value, msg):
    cfg = ExchangeConfig(**{field: value})
    with pytest.raises(ValueError, match=msg):
        cfg.validate()


# ---------------------------------------------------------------------------
# buffer limit


def test_buffer_limit_alpha_one_is_linear():
    cfg = ExchangeConfig(alpha=1.0, beta=700)
    for u in (1, 2, 3, 5, 17, 100):
        assert buffer_limit(u, cfg) == u * 700


def test_buffer_limit_alpha_half_is_constant():
    cfg = ExchangeConfig(alpha=0.5, beta=1500)
    assert [buffer_limit(u, cfg) for u in range(1, 101)] == [1500] * 100


def test_buffer_limit_power_of_two_exact():
    cfg = ExchangeConfig(alpha=0.875, beta=1500)
    for k in range(0, 11):
        u = 1 << k
        exact = Fraction(7, 8) ** k * u * 1500
        assert buffer_limit(u, cfg) == -(-exact.numerator // exact.denominator)


def test_buffer_limit_rejects_nonpositive_u():
    with pytest.raises(ValueError):
        buffer_limit(0, ExchangeConfig())


def test_buffer_limit_matches_oracle_sweep():
    for alpha in (Fraction(1, 2), Fraction(5, 8), Fraction(3, 4),
                  Fraction(7, 8), Fraction(1)):
        for beta in (100, 1500):
            cfg = ExchangeConfig(alpha=float(alpha), beta=beta)
            for u in list(range(1, 65)) + [100, 127, 128, 129, 255, 256]:
                assert buffer_limit(u, cfg) == limit_oracle(u, alpha, beta), \
                    (u, alpha, beta)


def test_buffer_limit_nondecreasing_in_u():
    cfg = ExchangeConfig(alpha=0.875, beta=1500)
    vals = [buffer_limit(u, cfg) for u in range(1, 300)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# codec


def test_serialize_known_layout():
    cs = [Clause.make([1]), Clause.make([2, -3]), Clause.make([1, 2, 3])]
    assert serialize(cs) == [1, 1, 1, 2, -3, 1, 1, 2, 3]


def test_serialize_zero_counts_only_before_longer_groups():
    assert serialize([Clause.make([1, 2, 3])]) == [0, 0, 1, 1, 2, 3]
    assert serialize([Clause.make([4])]) == [1, 4]
    assert serialize([]) == []


def test_serialize_limit_counts_headers():
    cs = [Clause.make([1]), Clause.make([2]), Clause.make([1, 2])]
    # the binary clause costs 2 literals + 1 new group header = 3 more
    assert serialize(cs, limit=3) == [2, 1, 2]
    assert serialize(cs, limit=5) == [2, 1, 2]
    assert serialize(cs, limit=6) == [2, 1, 2, 1, 1, 2]


def test_serialize_orders_canonically():
    cs = [Clause.make([5, -1]), Clause.make([2]), Clause.make([-1, 3])]
    assert serialize(cs) == [1, 2, 2, -1, 3, -1, 5]


def serialize_full_sort(clauses, limit=None):
    """Reference serialize: sort the whole clause set, then write under the limit."""
    ordered = sorted(set(clauses), key=lambda c: (len(c), c.sort_key))
    return _write((c.lits for c in ordered), limit)


def test_serialize_matches_full_sort():
    rng = Random(606)
    mid_cuts = 0
    for _ in range(300):
        cs = rand_clauses(rng, rng.randrange(0, 60), max_len=8)
        cs += cs[:rng.randrange(0, 5)]  # duplicates collapse
        full = serialize_full_sort(cs)
        limits = [None, 0, len(full), len(full) - 1, rng.randrange(len(full) + 2)]
        ordered = sorted(set(cs), key=lambda c: (len(c), c.sort_key))
        same_len = [i for i in range(len(ordered) - 1)
                    if len(ordered[i]) == len(ordered[i + 1])]
        if same_len:
            # one literal short of a group's next clause: the cut falls
            # inside that group, after its first i + 1 clauses overall
            i = rng.choice(same_len)
            prefix = serialize_full_sort(ordered[:i + 1])
            cut = len(prefix) + len(ordered[i + 1]) - 1
            assert serialize(cs, cut) == prefix
            limits.append(cut)
            mid_cuts += 1
        for limit in limits:
            assert serialize(cs, limit) == serialize_full_sort(cs, limit), limit
    assert mid_cuts > 200


def test_roundtrip_randomized():
    rng = Random(202)
    for _ in range(300):
        cs = rand_clauses(rng, rng.randrange(0, 40))
        buf = serialize(cs)
        back = deserialize(buf)
        expect = sorted(set(cs), key=lambda c: (len(c), c.sort_key))
        assert back == [c.lits for c in expect]
        assert serialize(back) == buf


# deserialize and merge read buffers through one decoder; both must reject.
DECODERS = (deserialize, lambda buf: merge([(buf, 1)], [], ExchangeConfig()))


def assert_rejected(buf, match):
    for decode in DECODERS:
        with pytest.raises(BufferFormatError, match=match):
            decode(buf)


def test_deserialize_rejects_negative_count():
    assert_rejected([-1], "negative count -1 for length 1")


def test_deserialize_rejects_truncated_group():
    assert_rejected([2, 5], "truncated")


def test_deserialize_rejects_zero_literal():
    assert_rejected([1, 0], "zero literal")


def test_deserialize_rejects_noncanonical_clause():
    assert_rejected([0, 1, 2, 1], "not canonical")  # (2, 1) is out of order


def test_deserialize_rejects_group_order_violation():
    assert_rejected([0, 2, 1, 3, 1, 2], "group not in canonical order")
    assert_rejected([0, 2, 1, 2, 1, 2], "group not in canonical order")  # duplicate clause


def stream_per_clause(buf):
    """The earlier clause-by-clause decoder, kept as the oracle of _groups."""
    pos = 0
    length = 0
    total = len(buf)
    while pos < total:
        length += 1
        n = buf[pos]
        pos += 1
        if n < 0:
            raise BufferFormatError(f"negative count {n} for length {length}")
        if pos + n * length > total:
            raise BufferFormatError(f"truncated group of length {length}")
        prev_key = None
        for _ in range(n):
            lits = tuple(buf[pos:pos + length])
            pos += length
            if 0 in lits:
                raise BufferFormatError("zero literal inside clause")
            keys = tuple([2 * l if l > 0 else 1 - 2 * l for l in lits])
            if not all(map(lt, keys, keys[1:])):
                raise BufferFormatError(f"clause {lits} not canonical")
            if prev_key is not None and keys <= prev_key:
                raise BufferFormatError("group not in canonical order")
            prev_key = keys
            yield length, keys, lits


def decode_or_error(decode, buf):
    try:
        return list(decode(buf))
    except BufferFormatError as exc:
        return str(exc)


def mutate(rng: Random, buf: list[int]) -> list[int]:
    """buf with one random edit: a literal, a count, a swap or a cut."""
    buf = list(buf)
    i = rng.randrange(len(buf))
    kind = rng.randrange(5)
    if kind == 0:
        buf[i] = -buf[i] or 1
    elif kind == 1:
        buf[i] = 0
    elif kind == 2:
        j = rng.randrange(len(buf))
        buf[i], buf[j] = buf[j], buf[i]
    elif kind == 3:
        buf[i] += rng.choice((-2, -1, 1, 2))
    else:
        del buf[i:]
    return buf


def test_groups_decode_like_per_clause_oracle():
    """Group-wise decoding accepts, yields and rejects exactly what the
    clause-by-clause scan does, with the same first error message."""
    rng = Random(808)
    faults = set()
    for trial in range(1500):
        cs = rand_clauses(rng, rng.randrange(1, 40), max_var=rng.choice((8, 40)))
        buf = serialize(cs)
        for _ in range(trial % 3):  # 0, 1 or 2 edits
            buf = mutate(rng, buf) if buf else buf
        want = decode_or_error(stream_per_clause, buf)
        assert decode_or_error(_stream, buf) == want
        if isinstance(want, str):
            faults.add(want.split()[0])
            with pytest.raises(BufferFormatError):
                merge([(buf, 1)], [], ExchangeConfig())
        else:
            assert deserialize(buf) == [lits for _n, _k, lits in want]
    assert faults == {"negative", "truncated", "zero", "clause", "group"}


def test_bytes_roundtrip():
    buf = [2, 1, -7, 0, 1, 3, -4, 5]
    assert buffer_from_bytes(buffer_to_bytes(buf)) == buf
    assert buffer_to_bytes([]) == b""


def test_bytes_rejects_ragged_input():
    with pytest.raises(BufferFormatError):
        buffer_from_bytes(b"\x01\x02\x03")


# ---------------------------------------------------------------------------
# merge


def test_merge_matches_oracle_randomized():
    rng = Random(77)
    for trial in range(250):
        cfg = ExchangeConfig(alpha=rng.choice([0.5, 0.75, 0.875, 1.0]),
                             beta=rng.choice([20, 40, 80, 400]))
        buffers = []
        for _ in range(rng.randrange(0, 4)):
            cs = rand_clauses(rng, rng.randrange(0, 25))
            buffers.append((serialize(cs), rng.randrange(1, 6)))
        own = serialize(rand_clauses(rng, rng.randrange(0, 25)))
        got = merge(buffers, own, cfg)
        assert got == merge_oracle(buffers, own, cfg), trial


def test_merge_dedups_across_sources():
    cfg = ExchangeConfig(alpha=1.0, beta=100)
    c = Clause.make([3, -5])
    buf = serialize([c])
    out, u_out = merge([(buf, 1), (buf, 1)], buf, cfg)
    assert u_out == 3
    assert deserialize(out) == [c.lits]


def test_merge_truncates_whole_clauses():
    cfg = ExchangeConfig(alpha=1.0, beta=2)  # limit = u_out * 2
    cs = [Clause.make([1]), Clause.make([2]), Clause.make([3]),
          Clause.make([1, 2])]
    out, u_out = merge([], serialize(cs), cfg)
    assert u_out == 1
    # limit 2 admits the header plus one unit; nothing longer sneaks in
    assert out == [1, 1]


def test_merge_empty_inputs():
    out, u_out = merge([], [], ExchangeConfig())
    assert out == [] and u_out == 1


# ---------------------------------------------------------------------------
# hashes and filters


def test_commutative_hash_permutation_invariant():
    rng = Random(5)
    for _ in range(100):
        lits = [rng.choice([-1, 1]) * v
                for v in rng.sample(range(1, 200), rng.randrange(1, 8))]
        shuffled = lits[:]
        rng.shuffle(shuffled)
        assert commutative_hash(lits) == commutative_hash(shuffled)


def test_commutative_hash_length_sensitive():
    assert commutative_hash([1, 2]) != commutative_hash([1, 2, 3])
    assert commutative_hash([1]) != commutative_hash([1, 1])
    assert commutative_hash([4, -9]) != commutative_hash([4, 9])


def test_commutative_hash_mix_table_holds_seen_literals_only():
    mix = LiteralMix()
    assert commutative_hash([1, -2, 30], mix) == commutative_hash([30, 1, -2])
    assert commutative_hash((-2, 5), mix) == commutative_hash((5, -2))
    assert set(mix) == {1, -2, 30, 5}
    f = ClauseFilter()
    f.check_import(Clause((3, -4)))
    f.check_import(Clause((7,)))  # units stay in the exact set, unhashed
    assert set(f._mix) == {3, -4}


def test_stream_keys_are_literal_keys():
    rng = Random(17)
    cs = rand_clauses(rng, 300)
    buf = serialize(cs)
    got = [(length, keys, lits) for length, keys, lits in _stream(buf)]
    expect = sorted(set(cs), key=lambda c: (len(c), c.sort_key))
    assert [lits for _l, _k, lits in got] == [c.lits for c in expect]
    for length, keys, lits in got:
        assert keys == tuple(literal_key(l) for l in lits) == Clause(lits).sort_key
        assert length == len(lits)


def test_filter_units_are_exact():
    f = ClauseFilter()
    u = Clause.make([-17])
    assert f.register_export(u) is True
    assert f.register_export(u) is False
    assert f.check_import(u) is False
    assert f.check_import(Clause.make([17])) is True  # opposite sign distinct
    assert -17 in f.unit_set and 17 in f.unit_set


def test_filter_nonunit_blocks_repeat():
    f = ClauseFilter()
    c = Clause.make([2, -9, 14])
    assert f.check_import(c) is True
    assert f.check_import(c) is False
    assert f.register_export(c) is False


def test_filter_two_generation_forgetting():
    f = ClauseFilter()
    c = Clause.make([1, 2, 3])
    assert f.check_import(c) is True
    f.forget_half(Random(0))
    assert f.check_import(c) is False  # still in the retired generation
    # the re-admission above re-inserted it into the fresh generation, so
    # two *quiet* retirements are needed before it passes again
    f.forget_half(Random(0))
    f.forget_half(Random(0))
    assert f.check_import(c) is True


def test_filter_forget_half_drops_about_half_units():
    f = ClauseFilter()
    for v in range(1, 2001):
        f.register_export(Clause.make([v]))
    f.forget_half(Random(42))
    kept = len(f.unit_set)
    # binomial(2000, 1/2): 3 sigma is about 67
    assert 900 <= kept <= 1100


def test_filter_forget_half_deterministic_per_seed():
    def survivors(seed):
        f = ClauseFilter()
        for v in range(1, 301):
            f.register_export(Clause.make([v]))
        f.forget_half(Random(seed))
        return set(f.unit_set)

    assert survivors(7) == survivors(7)
    assert survivors(7) != survivors(8)


def test_filter_low_false_positive_rate():
    f = ClauseFilter()
    rng = Random(99)
    for _ in range(2000):
        vs = rng.sample(range(1, 500), 3)
        f.register_export(Clause.make([v for v in vs]))
    blocked = 0
    for _ in range(2000):
        vs = rng.sample(range(500, 1000), 3)
        if not f.check_import(Clause.make([v for v in vs])):
            blocked += 1
    assert blocked <= 3


def test_filter_memory_follows_traffic():
    f = ClauseFilter()
    assert not f._cur and not f._old and not f.unit_set
    rng = Random(5)
    clauses = {Clause.make(rng.sample(range(1, 200), rng.randint(2, 6)))
               for _ in range(500)}
    for c in clauses:
        assert f.register_export(c)
    assert len(f._cur) + len(f._old) == len(clauses)
    assert not f.unit_set


def test_filter_generations_are_capped():
    f = ClauseFilter()
    f.GEN_CAP = 4
    clauses = [Clause.make([i, i + 1]) for i in range(1, 24, 2)]
    for c in clauses:
        assert f.register_export(c)
    assert len(f._cur) <= 4 and len(f._old) <= 4
    assert not any(f.check_import(c) for c in clauses[8:])
    assert f.check_import(clauses[0])   # two generations back: forgotten



# ---------------------------------------------------------------------------
# literal tuples and Clause objects are interchangeable


def test_serialize_tuples_equals_clauses():
    rng = Random(31)
    for _ in range(200):
        cs = rand_clauses(rng, rng.randrange(0, 40))
        limit = rng.choice([None, 0, 7, 40, 150])
        assert serialize([c.lits for c in cs], limit) == serialize(cs, limit)


def test_filter_same_for_tuple_and_clause():
    rng = Random(33)
    cs = rand_clauses(rng, 400, max_var=12, max_len=3)  # many repeats
    by_tuple, by_clause = ClauseFilter(), ClauseFilter()
    for i, c in enumerate(cs):
        if i == 200:
            by_tuple.forget_half(Random(5))
            by_clause.forget_half(Random(5))
        use = "register_export" if i % 3 else "check_import"
        assert getattr(by_tuple, use)(c.lits) == getattr(by_clause, use)(c)
        assert commutative_hash(c.lits) == commutative_hash(c)
    assert by_tuple.unit_set == by_clause.unit_set
    assert by_tuple._cur == by_clause._cur and by_tuple._old == by_clause._old


def test_length_mix_table_is_mix64_of_salted_length():
    assert _LEN_MIX == tuple(mix64(n ^ _LEN_SALT) for n in range(len(_LEN_MIX)))
    for n in (1, 2, len(_LEN_MIX) - 1, len(_LEN_MIX), len(_LEN_MIX) + 7):
        lits = list(range(1, n + 1))
        expect = (sum(mix64(l) for l in lits) % 2 ** 64) ^ mix64(n ^ _LEN_SALT)
        assert commutative_hash(lits) == expect

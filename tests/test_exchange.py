"""Clause exchange: buffer limits, flat codec, merging, duplicate filters."""
import tracemalloc
from fractions import Fraction
from operator import lt
from random import Random

import pytest

from flexsat.exchange import (BufferFormatError, ClauseFilter, buffer_from_bytes,
                              buffer_limit, buffer_to_bytes, deserialize, merge,
                              serialize)
from flexsat.formula import canonical_literals
from flexsat.runtime import ClusterConfig
from flexsat.solver.cdcl import cdcl_solve
from helpers import (clause_keys, clause_order, key_literal, key_order, limit_oracle,
                     merge_oracle, rand_clauses, rand_keys, random_3cnf,
                     reference_merge, serialize_oracle)


# ---------------------------------------------------------------------------
# buffer limit


def test_buffer_limit_alpha_one_is_linear():
    cfg = ClusterConfig(alpha=1.0, beta=700)
    for u in (1, 2, 3, 5, 17, 100):
        assert buffer_limit(u, cfg) == u * 700


def test_buffer_limit_alpha_half_is_constant():
    cfg = ClusterConfig(alpha=0.5, beta=1500)
    assert [buffer_limit(u, cfg) for u in range(1, 101)] == [1500] * 100


def test_buffer_limit_power_of_two_exact():
    cfg = ClusterConfig(alpha=0.875, beta=1500)
    for k in range(0, 11):
        u = 1 << k
        exact = Fraction(7, 8) ** k * u * 1500
        assert buffer_limit(u, cfg) == -(-exact.numerator // exact.denominator)


def test_buffer_limit_rejects_nonpositive_u():
    with pytest.raises(ValueError):
        buffer_limit(0, ClusterConfig())


def test_buffer_limit_matches_oracle_sweep():
    for alpha in (Fraction(1, 2), Fraction(5, 8), Fraction(3, 4),
                  Fraction(7, 8), Fraction(1)):
        for beta in (100, 1500):
            cfg = ClusterConfig(alpha=float(alpha), beta=beta)
            for u in list(range(1, 65)) + [100, 127, 128, 129, 255, 256]:
                assert buffer_limit(u, cfg) == limit_oracle(u, alpha, beta), \
                    (u, alpha, beta)


def test_buffer_limit_nondecreasing_in_u():
    cfg = ClusterConfig(alpha=0.875, beta=1500)
    vals = [buffer_limit(u, cfg) for u in range(1, 300)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_buffer_limit_reads_cluster_config_defaults():
    """A default ClusterConfig is the paper's alpha = 7/8, beta = 1500."""
    cfg = ClusterConfig()
    for u in list(range(1, 33)) + [64, 100, 128, 255, 256]:
        assert buffer_limit(u, cfg) == limit_oracle(u, Fraction(7, 8), 1500), u


# ---------------------------------------------------------------------------
# codec


def keys_of(*clauses):
    """Signed literal tuples as the key tuples serialize takes."""
    return [clause_keys(c) for c in clauses]


def test_serialize_known_layout():
    cs = keys_of((1,), (2, -3), (1, 2, 3))
    assert serialize(cs) == [1, 1, 1, 2, -3, 1, 1, 2, 3]


def test_serialize_zero_counts_only_before_longer_groups():
    assert serialize(keys_of((1, 2, 3))) == [0, 0, 1, 1, 2, 3]
    assert serialize(keys_of((4,))) == [1, 4]
    assert serialize([]) == []


def test_serialize_limit_counts_headers():
    cs = keys_of((1,), (2,), (1, 2))
    # the binary clause costs 2 literals + 1 new group header = 3 more
    assert serialize(cs, limit=3) == [2, 1, 2]
    assert serialize(cs, limit=5) == [2, 1, 2]
    assert serialize(cs, limit=6) == [2, 1, 2, 1, 1, 2]


def test_serialize_orders_canonically():
    cs = keys_of((-1, 5), (2,), (-1, 3))
    assert serialize(cs) == [1, 2, 2, -1, 3, -1, 5]


def test_serialize_matches_full_sort():
    """serialize of key tuples writes what the clause-by-clause writer
    writes for the same clauses as signed literal tuples, at every limit."""
    rng = Random(606)
    mid_cuts = 0
    for _ in range(300):
        cs = rand_clauses(rng, rng.randrange(0, 60), max_len=8)
        cs += cs[:rng.randrange(0, 5)]  # duplicates collapse
        keys = keys_of(*cs)
        full = serialize_oracle(cs)
        limits = [None, 0, len(full), len(full) - 1, rng.randrange(len(full) + 2)]
        ordered = sorted(set(cs), key=clause_order)
        same_len = [i for i in range(len(ordered) - 1)
                    if len(ordered[i]) == len(ordered[i + 1])]
        if same_len:
            # one literal short of a group's next clause: the cut falls
            # inside that group, after its first i + 1 clauses overall
            i = rng.choice(same_len)
            prefix = serialize_oracle(ordered[:i + 1])
            cut = len(prefix) + len(ordered[i + 1]) - 1
            assert serialize(keys, cut) == prefix
            limits.append(cut)
            mid_cuts += 1
        for limit in limits:
            assert serialize(keys, limit) == serialize_oracle(cs, limit), limit
    assert mid_cuts > 200


def test_roundtrip_randomized():
    rng = Random(202)
    for _ in range(300):
        cs = rand_keys(rng, rng.randrange(0, 40))
        buf = serialize(cs)
        back = deserialize(buf)
        assert back == sorted(set(cs), key=key_order)
        assert serialize(back) == buf


# deserialize and merge read buffers through one decoder; both must reject.
DECODERS = (deserialize, lambda buf: merge([(buf, 1)], [], ClusterConfig()))


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
        cs = rand_keys(rng, rng.randrange(1, 40), max_var=rng.choice((8, 40)))
        buf = serialize(cs)
        for _ in range(trial % 3):  # 0, 1 or 2 edits
            buf = mutate(rng, buf) if buf else buf
        want = decode_or_error(stream_per_clause, buf)
        got = decode_or_error(deserialize, buf)
        if isinstance(want, str):
            assert got == want
            faults.add(want.split()[0])
            with pytest.raises(BufferFormatError):
                merge([(buf, 1)], [], ClusterConfig())
        else:
            assert got == [keys for _n, keys, _lits in want]
    assert faults == {"negative", "truncated", "zero", "clause", "group"}


@pytest.mark.parametrize("tail,match", [
    ([1, 0, 5], "zero literal"),
    ([1, 5, 4], "not canonical"),
    ([2, 4, 5, 1, 2], "group not in canonical order"),
], ids=["zero", "clause", "group"])
def test_merge_checks_groups_past_the_limit(tail, match):
    """merge decodes every input group in full, also those past the
    truncation point, and refuses a bad one as deserialize does."""
    buf = [3, 1, 2, 3] + tail  # three units, then a bad binary group
    cfg = ClusterConfig(alpha=1.0, beta=1)  # limit 2: one unit fits
    with pytest.raises(BufferFormatError, match=match) as by_deserialize:
        deserialize(buf)
    with pytest.raises(BufferFormatError, match=match) as by_merge:
        merge([(buf, 1)], [], cfg)
    assert str(by_merge.value) == str(by_deserialize.value)
    assert merge([([3, 1, 2, 3], 1)], [], cfg) == ([1, 1], 2)


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
        cfg = ClusterConfig(alpha=rng.choice([0.5, 0.75, 0.875, 1.0]),
                            beta=rng.choice([20, 40, 80, 400]))
        buffers = []
        for _ in range(rng.randrange(0, 4)):
            cs = rand_keys(rng, rng.randrange(0, 25))
            buffers.append((serialize(cs), rng.randrange(1, 6)))
        keys = rand_keys(rng, rng.randrange(0, 25))
        own = serialize(keys)
        got = merge(buffers, own, cfg)
        assert got == merge_oracle(buffers, own, cfg), trial
        # A leaf's export, written under b(1), merges alone to itself: a
        # leaf sends it as is.  Tight betas truncate it mid-group.
        for beta in (1, 7, cfg.beta):
            leaf_cfg = ClusterConfig(alpha=cfg.alpha, beta=beta)
            leaf = serialize(keys, buffer_limit(1, leaf_cfg))
            assert merge([], leaf, leaf_cfg) == (leaf, 1), (trial, beta)


def merge_or_error(merge_fn, buffers, own, cfg):
    try:
        return merge_fn(buffers, own, cfg)
    except BufferFormatError as exc:
        return str(exc)


@pytest.mark.parametrize("beta", [1, 7, 40, 1500])
def test_merge_matches_the_reference_merge(beta):
    """merge against the merge that collected every group, kept in the
    tests: the same buffer and u, or the same first error, at tight and
    default beta, with groups too long for the limit and malformed inputs
    (a fault in such a group included)."""
    rng = Random(beta)
    seen = dict.fromkeys(("error", "long_group", "emitted"), 0)
    for trial in range(300):
        cfg = ClusterConfig(alpha=rng.choice([0.5, 0.875, 1.0]), beta=beta)
        max_len = rng.choice((3, 12, 40))
        buffers = [(serialize(rand_keys(rng, rng.randrange(0, 30), max_len=max_len)),
                    rng.randrange(1, 6)) for _ in range(rng.randrange(0, 4))]
        own = serialize(rand_keys(rng, rng.randrange(0, 30), max_len=max_len))
        if trial % 4 == 3:  # one edit to one non-empty input
            inputs = [i for i, (buf, _u) in enumerate(buffers) if buf]
            k = rng.choice(inputs + [-1] if own else inputs or [None])
            if k == -1:
                own = mutate(rng, own)
            elif k is not None:
                buffers[k] = (mutate(rng, buffers[k][0]), buffers[k][1])
        got = merge_or_error(merge, buffers, own, cfg)
        assert got == merge_or_error(reference_merge, buffers, own, cfg), trial
        if isinstance(got, str):
            seen["error"] += 1
            continue
        limit = buffer_limit(got[1], cfg)
        seen["long_group"] += any(2 * len(keys) > limit
                                  for buf in [b for b, _u in buffers] + [own]
                                  for keys in deserialize(buf))
        seen["emitted"] += bool(got[0])
    if beta == 1500:  # clauses of at most 40 literals: no group is too long
        assert seen.pop("long_group") == 0
    assert min(seen.values()) >= 20, seen


def test_merge_dedups_across_sources():
    cfg = ClusterConfig(alpha=1.0, beta=100)
    c = clause_keys((3, -5))
    buf = serialize([c])
    out, u_out = merge([(buf, 1), (buf, 1)], buf, cfg)
    assert u_out == 3
    assert deserialize(out) == [c]


def test_merge_truncates_whole_clauses():
    cfg = ClusterConfig(alpha=1.0, beta=2)  # limit = u_out * 2
    cs = keys_of((1,), (2,), (3,), (1, 2))
    out, u_out = merge([], serialize(cs), cfg)
    assert u_out == 1
    # limit 2 admits the header plus one unit; nothing longer sneaks in
    assert out == [1, 1]


def test_merge_empty_inputs():
    out, u_out = merge([], [], ClusterConfig())
    assert out == [] and u_out == 1


# ---------------------------------------------------------------------------
# streams and filters


def test_deserialize_returns_literal_keys():
    rng = Random(17)
    cs = rand_clauses(rng, 300)
    buf = serialize(keys_of(*cs))
    ordered = sorted(set(cs), key=clause_order)
    assert buf == serialize_oracle(cs)
    assert deserialize(buf) == keys_of(*ordered)


def test_filter_units_are_exact():
    f = ClauseFilter()
    u = (-17,)
    assert f.register_export(u) is True
    assert f.register_export(u) is False
    assert f.check_import(u) is False
    assert f.check_import((17,)) is True  # opposite sign distinct
    assert -17 in f.unit_set and 17 in f.unit_set


def test_filter_nonunit_blocks_repeat():
    f = ClauseFilter()
    c = (2, -9, 14)
    assert f.check_import(c) is True
    assert f.check_import(c) is False
    assert f.register_export(c) is False


def test_filter_two_generation_forgetting():
    f = ClauseFilter()
    c = (1, 2, 3)
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
        f.register_export((v,))
    f.forget_half(Random(42))
    kept = len(f.unit_set)
    # binomial(2000, 1/2): 3 sigma is about 67
    assert 900 <= kept <= 1100


def test_filter_forget_half_deterministic_per_seed():
    def survivors(seed):
        f = ClauseFilter()
        for v in range(1, 301):
            f.register_export((v,))
        f.forget_half(Random(seed))
        return set(f.unit_set)

    assert survivors(7) == survivors(7)
    assert survivors(7) != survivors(8)


def test_filter_no_false_positives():
    f = ClauseFilter()
    rng = Random(99)
    for _ in range(2000):
        vs = rng.sample(range(1, 500), 3)
        f.register_export(canonical_literals(vs))
    blocked = 0
    for _ in range(2000):
        vs = rng.sample(range(500, 1000), 3)
        if not f.check_import(canonical_literals(vs)):
            blocked += 1
    assert blocked == 0


def test_filter_memory_follows_traffic():
    f = ClauseFilter()
    assert not f._cur and not f._old and not f.unit_set
    rng = Random(5)
    clauses = {canonical_literals(rng.sample(range(1, 200), rng.randint(2, 6)))
               for _ in range(500)}
    for c in clauses:
        assert f.register_export(c)
    assert len(f._cur) + len(f._old) == len(clauses)
    assert not f.unit_set


def test_filter_generations_are_capped():
    f = ClauseFilter()
    f.GEN_WORDS = 16  # four 2-literal clauses
    clauses = [(i, i + 1) for i in range(1, 24, 2)]
    for c in clauses:
        assert f.register_export(c)
    assert len(f._cur) <= 4 and len(f._old) <= 4
    assert not any(f.check_import(c) for c in clauses[8:])
    assert f.check_import(clauses[0])   # two generations back: forgotten


def test_filter_nonunits_are_exact():
    f = ClauseFilter()
    mirror: set[tuple[int, ...]] = set()
    rng = Random(2121)
    for op in range(50_000):
        lits = tuple(v if rng.getrandbits(1) else -v
                     for v in sorted(rng.sample(range(1, 13), rng.randint(2, 4))))
        fresh = (f.register_export(lits) if rng.getrandbits(1)
                 else f.check_import(lits))
        assert fresh == (lits not in mirror), f"op {op} clause {lits}"
        mirror.add(lits)
    assert not f._old and f._cur == mirror  # no generation retired


def test_filter_matches_generation_oracle():
    """Across overfull generations and forget_half calls, the filter admits a
    key tuple exactly when a plain two-generation model does: units in one
    set, halved in signed-literal order one random bit each; a non-unit
    costs its length plus two words, and an insert that would overfill the
    current generation retires it first."""
    f = ClauseFilter()
    f.GEN_WORDS = 40
    units: set[int] = set()
    cur: set[tuple[int, ...]] = set()
    old: set[tuple[int, ...]] = set()
    words = 0
    rng, f_rng, o_rng = Random(35), Random(6), Random(6)
    for op, c in enumerate(rand_keys(rng, 3000, max_var=10, max_len=3)):
        if op % 250 == 249:
            f.forget_half(f_rng)
            units = {u for u in sorted(units, key=key_literal) if o_rng.getrandbits(1)}
            old, cur, words = cur, set(), 0
        if len(c) == 1:
            want = c[0] not in units
            units.add(c[0])
        elif c in cur:
            want = False
        else:
            words += len(c) + 2
            if words > f.GEN_WORDS:
                old, cur, words = cur, set(), len(c) + 2
            cur.add(c)
            want = c not in old
        use = f.register_export if op % 3 else f.check_import
        assert use(c) is want, f"op {op} clause {c}"
    assert f.unit_set == units and f._cur == cur and f._old == old


def test_exported_clauses_round_trip_and_are_rejected():
    """The filter keys clauses by their tuples, so a clause must arrive in
    the canonical order it left in: a solver's exports survive the
    exchange format unchanged, and the filter that saw them blocks them."""
    exported = []
    cdcl_solve(random_3cnf(Random(21), 40, 172), seed=3, export_fn=exported.append)
    assert len(set(exported)) > 20
    back = deserialize(serialize(exported))
    assert sorted(back) == sorted(set(exported))
    f = ClauseFilter()
    for lits in exported:
        f.register_export(lits)
    assert not any(f.check_import(lits) for lits in back)


def _distinct_clauses(width: int, rng: Random):
    """Distinct canonical clauses over variables 1..1000, each of fresh ints:
    arithmetic progressions s, s + d, ... with random signs."""
    for d in range(1, 1000):
        for s in range(1, 1001 - (width - 1) * d):
            signs = rng.getrandbits(width)
            yield tuple([-(s + k * d) if signs >> k & 1 else s + k * d
                         for k in range(width)])


@pytest.mark.parametrize("width", [2, 3, 30])
def test_filter_memory_is_bounded(width):
    """Fed past two full generations of distinct clauses, a filter's tuples
    and sets peak under 6.5 MiB, about what two generations of 2^15 64-bit
    fingerprints took before filters kept exact clauses."""
    per_gen = ClauseFilter.GEN_WORDS // (width + 2)
    clauses = _distinct_clauses(width, Random(width))
    tracemalloc.start()
    try:
        f = ClauseFilter()
        for _ in range(2 * per_gen + per_gen // 2):
            assert f.register_export(next(clauses))
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert f._old and f._cur
    assert peak <= 6.5 * 2 ** 20


"""Shared test fixtures: formula and run generators, and independent oracles.

Oracles here deliberately avoid the production algorithms: satisfiability
is decided by exhaustive truth tables, buffer limits by arbitrary
precision arithmetic with exact branches for the rational cases, buffers
by a clause-by-clause writer over signed literal tuples, merges by
decode-everything-and-redo, volumes by bisection on the water level.
Five exceptions are earlier production code, kept as exact differential
oracles: `segment_scan_volumes`, the quadratic volume search,
`reference_compute_volumes`, the integer sweep before it took fewer passes,
`reference_merge`, the merge that collected every group,
`reference_apply_events`, the event loop before the table update became a
`consolidate` fold, and `oracle_parse_dimacs`, the line-by-line DIMACS
scanner.
"""
from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction
from random import Random
from typing import Iterable

import mpmath as mp

from flexsat.exchange import buffer_limit
from flexsat.formula import Cnf, DimacsError, canonical_literals, literal_key
from flexsat.runtime import Cluster, ClusterConfig
from flexsat.sched import JobDescriptor, JobInfo

# ---------------------------------------------------------------------------
# formula and run generators


def random_3cnf(rng: Random, n: int, m: int) -> Cnf:
    clauses = []
    for _ in range(m):
        vs = rng.sample(range(1, n + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return Cnf.from_clauses(n, clauses)


def synth_cluster(num_jobs: int, num_pes: int, seed: int = 1) -> Cluster:
    """Synthetic jobs arriving over 3 s, in the shape of perfbench's sched_synth."""
    rng = Random(seed)
    jobs = [JobDescriptor(job=j, priority=rng.choice([0.2, 0.4, 0.6, 0.8]),
                          arrival_s=3.0 * (j - 1 + rng.random()) / num_jobs,
                          demand=rng.choice([1, 2, 4, 8, 16]),
                          synthetic_s=rng.uniform(0.3, 1.2))
            for j in range(1, num_jobs + 1)]
    cfg = ClusterConfig(num_pes=num_pes, threads=1, epsilon=0.05, seed=seed, timeout_s=60.0)
    return Cluster(cfg, jobs, demand_changes=[(1.0, 2, 12), (1.5, 3, 1)])


def write_dimacs(cnf: Cnf) -> str:
    """Render a formula back to DIMACS text (canonical clause order kept)."""
    out = [f"p cnf {cnf.num_vars} {cnf.num_clauses}"]
    for c in cnf.clause_lits():
        out.append(" ".join(map(str, c)) + " 0")
    return "\n".join(out) + "\n"


def random_kcnf(rng: Random, n: int, m: int, k: int) -> Cnf:
    clauses = []
    for _ in range(m):
        vs = rng.sample(range(1, n + 1), min(k, n))
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return Cnf.from_clauses(n, clauses)


def rand_clauses(rng: Random, count: int, max_var: int = 40,
                 max_len: int = 6) -> list[tuple[int, ...]]:
    """Random canonical literal tuples of 1..max_len distinct variables,
    repeats allowed: the clause form a flat buffer holds."""
    out = []
    for _ in range(count):
        k = rng.randrange(1, max_len + 1)
        vs = rng.sample(range(1, max_var + 1), k)
        out.append(canonical_literals([v if rng.random() < 0.5 else -v for v in vs]))
    return out


def clause_order(lits: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Sort key of a canonical clause in a buffer: length, then literal_key codes."""
    return len(lits), tuple(map(literal_key, lits))


def clause_keys(lits) -> tuple[int, ...]:
    """A canonical literal tuple as the exchange layer carries it: its literal keys."""
    return tuple(map(literal_key, lits))


def key_literal(key: int) -> int:
    """Signed literal of a literal key, 2*|lit| + (lit < 0)."""
    return -(key >> 1) if key & 1 else key >> 1


def rand_keys(rng: Random, count: int, max_var: int = 40,
              max_len: int = 6) -> list[tuple[int, ...]]:
    """rand_clauses as literal_key tuples, the clause form the exchange layer carries."""
    return [clause_keys(c) for c in rand_clauses(rng, count, max_var, max_len)]


def key_order(keys: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Sort key of a key tuple in a buffer: length, then the keys; clause_order's twin."""
    return len(keys), keys


def php_cnf(holes: int) -> Cnf:
    """Pigeonhole: holes+1 pigeons into `holes` holes; always UNSAT."""
    pigeons = holes + 1

    def var(p: int, h: int) -> int:
        return p * holes + h + 1

    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for a in range(pigeons):
            for b in range(a + 1, pigeons):
                clauses.append([-var(a, h), -var(b, h)])
    return Cnf.from_clauses(pigeons * holes, clauses)


def xor_chain_cnf(n: int, parity: int) -> Cnf:
    """x1 xor ... xor xn = parity, Tseitin-style chain over 2n-1 variables.

    Variables 1..n are the inputs; n+1..2n-1 hold running parities.
    parity=0 is satisfiable (2^(n-1) models over the inputs), and adding
    both parities of the same chain is how callers build UNSAT variants.
    """
    clauses = []
    prev = 1
    aux = n
    for i in range(2, n + 1):
        aux += 1
        # aux <-> prev xor x_i
        clauses += [[-aux, prev, i], [-aux, -prev, -i],
                    [aux, -prev, i], [aux, prev, -i]]
        prev = aux
    clauses.append([prev] if parity else [-prev])
    return Cnf.from_clauses(aux, clauses)


def crafted_corpus() -> list[tuple[str, Cnf]]:
    """Twenty small structured instances, SAT and UNSAT mixed."""
    rng = Random(0xC0FFEE)
    out: list[tuple[str, Cnf]] = [
        ("php3", php_cnf(3)),
        ("php4", php_cnf(4)),
        ("xor9_sat", xor_chain_cnf(9, 0)),
        ("xor12_sat", xor_chain_cnf(12, 1)),
        ("units", Cnf.from_clauses(6, [[1], [-2], [3], [-4], [5], [-6],
                                       [1, 2], [-2, -4], [5, 6]])),
        ("contradict", Cnf.from_clauses(4, [[1], [-1, 2], [-2, 3], [-3, -1]])),
        ("empty", Cnf.from_clauses(5, [])),
        ("triangle2col", Cnf.from_clauses(6, [
            [1, 2], [3, 4], [5, 6],
            [-1, -3], [-3, -5], [-1, -5],
            [-2, -4], [-4, -6], [-2, -6]])),
        ("chain_imp", Cnf.from_clauses(12, [[-i, i + 1] for i in range(1, 12)]
                                       + [[1]])),
        ("chain_unsat", Cnf.from_clauses(12, [[-i, i + 1] for i in range(1, 12)]
                                         + [[1], [-12]])),
    ]
    # An UNSAT xor chain: both parities over shared inputs.
    base = xor_chain_cnf(8, 0)
    flipped = xor_chain_cnf(8, 1)
    both = [*base.clause_lits(), *flipped.clause_lits()]
    out.append(("xor8_unsat", Cnf.from_clauses(base.num_vars, both)))
    while len(out) < 20:
        i = len(out)
        n = rng.randrange(12, 25)
        m = int(n * rng.choice([3.5, 4.3, 5.0]))
        out.append((f"rand{i}_{n}v", random_3cnf(rng, n, m)))
    return out


# ---------------------------------------------------------------------------
# DIMACS oracle: the earlier line-by-line scanner, one literal tuple per clause


def _oracle_canonical(lits: list[int]) -> tuple[int, ...] | None:
    """Literals deduplicated in first-seen order, sorted by literal_key;
    None for a tautology."""
    seen = set()
    out = []
    for lit in lits:
        if -lit in seen:
            return None
        if lit not in seen:
            seen.add(lit)
            out.append(lit)
    out.sort(key=literal_key)
    return tuple(out)


def oracle_parse_dimacs(source: str | bytes) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(num_vars, clauses) of DIMACS text, or the DimacsError of its first fault."""
    if isinstance(source, bytes):
        source = source.decode("utf-8", errors="replace")

    num_vars: int | None = None
    clauses: list[tuple[int, ...]] = []
    pending: list[int] = []
    pending_line = 0

    lines = source.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("%"):
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
                lits = _oracle_canonical(pending)
                if lits is not None:
                    clauses.append(lits)
                pending = []
            else:
                if abs(lit) > num_vars:
                    raise DimacsError(f"literal {lit} out of range", lineno)
                if not pending:
                    pending_line = lineno
                pending.append(lit)
    if num_vars is None:
        raise DimacsError("no header found", len(lines) or 1)
    if pending:
        raise DimacsError("clause missing 0 terminator", pending_line)
    return num_vars, tuple(clauses)


# ---------------------------------------------------------------------------
# exhaustive satisfiability oracle (truth tables as big integers)


def _var_table(i: int, n: int) -> int:
    """Truth table of variable i (0-based) over 2^n assignment rows.

    Built by doubling (shift + or), which stays linear in the table size;
    the closed-form big-integer division is quadratic and far too slow
    once tables reach a million bits.
    """
    half = 1 << i
    width = half * 2
    pat = ((1 << half) - 1) << half
    rows = 1 << n
    while width < rows:
        pat |= pat << width
        width *= 2
    return pat


def formula_table(cnf: Cnf) -> int:
    """Big-int truth table of the formula; bit a = 1 iff row a satisfies it."""
    n = cnf.num_vars
    rows = 1 << n
    ones = (1 << rows) - 1
    var_tt = {v: _var_table(v - 1, n) for v in range(1, n + 1)}
    acc = ones
    for c in cnf.clause_lits():
        tt = 0
        for lit in c:
            tt |= var_tt[lit] if lit > 0 else (~var_tt[-lit] & ones)
        acc &= tt
        if acc == 0:
            break
    return acc


def oracle_verdict(cnf: Cnf) -> str:
    return "SAT" if formula_table(cnf) != 0 else "UNSAT"


def oracle_count(cnf: Cnf) -> int:
    return bin(formula_table(cnf)).count("1")


def oracle_model(cnf: Cnf) -> dict[int, bool] | None:
    tt = formula_table(cnf)
    if tt == 0:
        return None
    row = (tt & -tt).bit_length() - 1
    return {v: bool((row >> (v - 1)) & 1) for v in range(1, cnf.num_vars + 1)}


# ---------------------------------------------------------------------------
# buffer-limit oracle


def limit_oracle(u: int, alpha: Fraction, beta: int) -> int:
    """ceil(u * alpha^log2(u) * beta) via exact branches + mpmath.

    alpha = 1 and alpha = 1/2 are rational for every u; powers of two are
    rational for every alpha.  The remaining cases are irrational, where
    50 and 80 digits must agree or the point is flagged as unstable.
    """
    if alpha == 1:
        return u * beta
    if alpha == Fraction(1, 2):
        return beta
    if u & (u - 1) == 0:
        k = u.bit_length() - 1
        exact = alpha ** k * u * beta
        return -(-exact.numerator // exact.denominator)

    def numeric(dps: int) -> int:
        with mp.workdps(dps):
            a = mp.mpf(alpha.numerator) / alpha.denominator
            return int(mp.ceil(u * a ** (mp.log(u) / mp.log(2)) * beta))

    lo, hi = numeric(50), numeric(80)
    assert lo == hi, f"oracle unstable at u={u} alpha={alpha} beta={beta}"
    return hi


# ---------------------------------------------------------------------------
# merge oracle


def serialize_oracle(clauses, limit: int | None = None) -> list[int]:
    """Reference serialize over signed literal tuples: sort the whole set by
    clause_order, then write clause by clause until one would pass the limit."""
    out: list[int] = []
    head = 0
    cur_len = 0
    for lits in sorted(set(clauses), key=clause_order):
        n = len(lits)
        cost = n + (n - cur_len if n > cur_len else 0)  # zero counts for skipped lengths + own
        if limit is not None and len(out) + cost > limit:
            break
        while cur_len < n:
            cur_len += 1
            head = len(out)
            out.append(0)
        out[head] += 1
        out.extend(lits)
    return out


def merge_oracle(buffers, own_export, cfg: ClusterConfig) -> tuple[list[int], int]:
    """Decode everything, dedup, sort, refill greedily under the limit.

    Mirrors the documented contract (whole clauses, stop at the first
    clause that does not fit) without reusing merge or serialize.
    """
    from flexsat.exchange import deserialize

    u_out = 1 + sum(u for _, u in buffers)
    clauses = {tuple(map(key_literal, keys))
               for buf, _u in list(buffers) + [(own_export, 1)]
               for keys in deserialize(buf)}
    return serialize_oracle(clauses, buffer_limit(u_out, cfg)), u_out


def reference_merge(buffers, own_export, cfg: ClusterConfig) -> tuple[list[int], int]:
    """merge as it was before it stopped collecting groups too long for the
    limit: every group of every input is decoded, checked and collected."""
    from flexsat.exchange import _groups, _write

    u_out = 1 + sum(u for _, u in buffers)
    groups: dict[int, set[tuple[int, ...]]] = {}
    for buf in [*(buf for buf, _ in buffers), own_export]:
        for length, keys in _groups(buf):
            groups.setdefault(length, set()).update(keys)
    return _write(groups, buffer_limit(u_out, cfg)), u_out


# ---------------------------------------------------------------------------
# volume oracle


def water_shares(jobs: list[JobInfo], budget: int) -> dict[int, Fraction] | None:
    """Exact clamped ideal shares, found by bisection on the water level.

    Independent of the production segment search: the level is isolated
    by halving a rational interval until the floor/cap membership is
    stable at both endpoints, then solved exactly on that segment.
    Returns None when budget < n (no level exists with everyone seated).
    """
    if not jobs or budget < len(jobs):
        return None
    total = sum(j.demand for j in jobs)
    if budget >= total:
        return {j.job: Fraction(j.demand) for j in jobs}

    w = {j.job: Fraction(j.priority) * j.demand for j in jobs}

    def filled(lam: Fraction) -> Fraction:
        return sum(min(Fraction(j.demand), max(Fraction(1), lam * w[j.job]))
                   for j in jobs)

    def parts(lam: Fraction):
        floor = frozenset(j.job for j in jobs if lam * w[j.job] < 1)
        cap = frozenset(j.job for j in jobs if lam * w[j.job] > j.demand)
        return floor, cap

    lo = Fraction(0)
    hi = max(Fraction(j.demand) / w[j.job] for j in jobs) + 1
    for _ in range(300):
        if parts(lo) == parts(hi):
            break
        mid = (lo + hi) / 2
        if filled(mid) < budget:
            lo = mid
        else:
            hi = mid
    floor, cap = parts(hi)
    mid_jobs = [j for j in jobs if j.job not in floor and j.job not in cap]
    base = len(floor) + sum(j.demand for j in jobs if j.job in cap)
    wsum = sum(w[j.job] for j in mid_jobs)
    lam = Fraction(budget - base) / wsum if wsum else hi
    shares = {}
    for j in jobs:
        if j.job in floor:
            shares[j.job] = Fraction(1)
        elif j.job in cap:
            shares[j.job] = Fraction(j.demand)
        else:
            shares[j.job] = lam * w[j.job]
    assert sum(shares.values()) == budget, "water level failed to close"
    return shares


def volume_oracle(jobs: list[JobInfo], budget: int) -> dict[int, int]:
    """Integer volumes from the exact shares via floors + largest remainder."""
    if not jobs:
        return {}
    if budget < len(jobs):
        order = sorted(jobs, key=lambda j: (-j.priority, j.arrival, j.job))
        grant = {j.job for j in order[:budget]}
        return {j.job: (1 if j.job in grant else 0) for j in jobs}
    shares = water_shares(jobs, budget)

    vols = {job: int(s) for job, s in shares.items()}  # Fraction floor
    leftover = budget - sum(vols.values())
    by_job = {j.job: j for j in jobs}
    order = sorted(
        (j.job for j in jobs if shares[j.job] != vols[j.job]),
        key=lambda job: (-(shares[job] - vols[job]), -by_job[job].priority,
                         by_job[job].arrival, job),
    )
    for job in order[:leftover]:
        vols[job] += 1
    return vols


def segment_scan_volumes(jobs: list[JobInfo], budget: int) -> dict[int, int]:
    """The earlier O(n^2) `compute_volumes`: classify every job anew per segment.

    Each breakpoint segment (0, p0), (p0, p1), ... is tried in order; the
    floor/cap/mid sets are rebuilt at its midpoint in exact fractions, and
    the first segment that holds the water level wins.  Rounding, the
    budget < n deferral and the budget >= sum(demand) shortcut are the
    production rules, so results must match `compute_volumes` exactly.
    """
    def tie_key(j: JobInfo) -> tuple:
        return (-j.priority, j.arrival, j.job)

    active = sorted(jobs, key=lambda j: j.job)
    n = len(active)
    if n == 0:
        return {}
    if budget < n:
        order = sorted(active, key=tie_key)
        vols = {j.job: 1 for j in order[:budget]}
        return {j.job: vols.get(j.job, 0) for j in active}
    if budget >= sum(j.demand for j in active):
        return {j.job: j.demand for j in active}

    w = {j.job: Fraction(j.priority) * j.demand for j in active}
    points = sorted({Fraction(1) / w[j.job] for j in active}
                    | {Fraction(j.demand) / w[j.job] for j in active})
    segments = [(Fraction(0), points[0])] + list(zip(points, points[1:]))
    lam = None
    for a, b in segments:
        m = (a + b) / 2
        floor_set = [j for j in active if m * w[j.job] < 1]
        cap_set = [j for j in active if m * w[j.job] > j.demand]
        mid_set = [j for j in active if 1 <= m * w[j.job] <= j.demand]
        base = len(floor_set) + sum(j.demand for j in cap_set)
        wm = sum(w[j.job] for j in mid_set)
        if wm == 0:
            if base == budget:
                lam = m
                break
            continue
        cand = Fraction(budget - base) / wm
        if a <= cand <= b:
            lam = cand
            break
    assert lam is not None, "water level must exist for n <= budget < total demand"

    vols = {j.job: 1 for j in floor_set}
    vols.update({j.job: j.demand for j in cap_set})
    shares = {j.job: lam * w[j.job] for j in mid_set}
    floors = {job: int(s) for job, s in shares.items()}
    leftover = budget - base - sum(floors.values())
    by_remainder = sorted(
        mid_set, key=lambda j: (-(shares[j.job] - floors[j.job]),) + tie_key(j))
    for j in by_remainder[:leftover]:
        floors[j.job] += 1
    vols.update(floors)
    return {j.job: vols[j.job] for j in active}


# ---------------------------------------------------------------------------
# volume reference: the earlier production sweep


def _reference_tie_key(j: JobInfo) -> tuple:
    return (-j.priority, j.arrival, j.job)


def reference_compute_volumes(jobs: Iterable[JobInfo], budget: int) -> dict[int, int]:
    """compute_volumes as it was before its sweep took fewer passes: the
    differential oracle for its maps, their key order and its ValueErrors.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    active = sorted(jobs, key=lambda j: j.job)
    for j in active:
        if not (0.0 < j.priority < 1.0):
            raise ValueError(f"job {j.job}: priority {j.priority} out of (0,1)")
        if j.demand < 1:
            raise ValueError(f"job {j.job}: demand must be >= 1")
    if len({j.job for j in active}) != len(active):
        raise ValueError("duplicate job ids")
    n = len(active)
    if n == 0:
        return {}

    if budget < n:
        order = sorted(active, key=_reference_tie_key)
        vols = {j.job: 1 for j in order[:budget]}
        return {j.job: vols.get(j.job, 0) for j in active}

    total_d = sum(j.demand for j in active)
    if budget >= total_d:
        return {j.job: j.demand for j in active}

    # In mu = 1/lambda, scaled by the common denominator of the priorities,
    # every breakpoint is an integer: job j (pi_j = p_j / scale) reaches its
    # cap at p_j and leaves the floor at w_j = p_j d_j.  Per distinct
    # breakpoint, `steps` counts the jobs leaving the floor there and sums
    # the demand of those capped there.
    ratios = [j.priority.as_integer_ratio() for j in active]
    scale = math.lcm(*(den for _, den in ratios))
    caps = [num * (scale // den) for num, den in ratios]
    leaves = [p * j.demand for p, j in zip(caps, active)]
    steps: dict[int, list[int]] = {}
    for j, w, p in zip(active, leaves, caps):
        steps.setdefault(w, [0, 0])[0] += 1
        steps.setdefault(p, [0, 0])[1] += j.demand

    # Sweep the segments (lower, upper) from the top breakpoint down; above
    # it every job sits on the floor.  With r PEs left beside the floored
    # and capped jobs, the level is mu = wm / r, so the first segment with
    # lower * r <= wm <= upper * r holds it.  Crossing k moves weight k per
    # job leaving the floor into the mid weight, and k d_j per job capped
    # at k out of it.
    floored, capped, wm = n, 0, 0
    upper = None  # the top segment is unbounded, and only ever has wm == 0
    for lower, (leaving, cap_demand) in sorted(steps.items(), reverse=True):
        r = budget - floored - capped
        if (lower * r <= wm <= upper * r) if wm else r == 0:
            break
        floored -= leaving
        capped += cap_demand
        wm += lower * (leaving - cap_demand)
        upper = lower
    else:
        raise AssertionError("water level must exist for n <= budget < total demand")

    # No breakpoint lies inside the segment, so each job is classified by
    # its own breakpoints against the segment's ends.  A mid job's share
    # r w_j / wm is one divmod: its floor, and its remainder over wm.
    vols: dict[int, int] = {}
    rem: dict[int, int] = {}
    mid_set: list[JobInfo] = []
    for j, w, p in zip(active, leaves, caps):
        if w <= lower:
            vols[j.job] = 1
        elif upper is not None and p >= upper:
            vols[j.job] = j.demand
        else:
            mid_set.append(j)
            vols[j.job], rem[j.job] = divmod(r * w, wm)
    leftover = r - sum(vols[j.job] for j in mid_set)
    by_remainder = sorted(mid_set, key=lambda j: (-rem[j.job],) + _reference_tie_key(j))
    for j in by_remainder[:leftover]:
        vols[j.job] += 1
    return {j.job: vols[j.job] for j in active}


# ---------------------------------------------------------------------------
# job-table reference: the earlier apply_events


def reference_apply_events(
    table: Mapping[int, JobInfo],
    events: Iterable[JobInfo] | Mapping[int, JobInfo],
) -> dict[int, JobInfo]:
    """apply_events as it was before it became a consolidate fold: events
    applied one by one in job order, each skipped unless its epoch is above
    the entry's, a completion (demand 0) popping the job."""
    if isinstance(events, Mapping):
        events = events.values()
    out = dict(table)
    for ev in sorted(events, key=lambda e: e.job):
        cur = out.get(ev.job)
        if cur is not None and ev.epoch <= cur.epoch:
            continue
        if ev.demand <= 0:
            out.pop(ev.job, None)
        else:
            out[ev.job] = ev
    return out

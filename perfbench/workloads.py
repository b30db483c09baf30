"""Seeded inputs for the four benchmark workloads.

Every workload is generated here, as text, from the run seed alone: a
scenario file in the line-JSON format of `flexsat run`, and DIMACS files
for the CNF jobs.  The program only ever sees that text, parsed through
its public loaders.  Shapes that decide what the program does (job
counts, durations, demands, priorities, formula sizes, the SAT/UNSAT
mix) are fixed spreads of values that the seed permutes and jitters, or
keeps in a fixed order where queueing makes order matter; the seed also
draws every formula.  Two seeds therefore load the same mechanisms
equally and the figures stay comparable between seeds.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from random import Random


@dataclass
class Instance:
    """One generated CNF: a file name and its DIMACS text."""

    name: str
    text: str


@dataclass
class Inputs:
    """Everything a workload feeds the program for one seed."""

    scenarios: list[str] = field(default_factory=list)  # line-JSON scenario texts
    instances: list[Instance] = field(default_factory=list)
    config: dict = field(default_factory=dict)  # ClusterConfig fields (mono runs)


def rng_for(seed: int, *labels) -> Random:
    """Independent, reproducible stream per (seed, label) pair."""
    return Random(":".join(str(x) for x in (seed,) + labels))


def _dimacs(num_vars: int, clauses: list[list[int]]) -> str:
    lines = [f"p cnf {num_vars} {len(clauses)}"]
    lines += [" ".join(map(str, c)) + " 0" for c in clauses]
    return "\n".join(lines) + "\n"


def random_3cnf(rng: Random, n: int, m: int) -> str:
    """Uniform random 3-CNF: m clauses over three distinct variables."""
    clauses = []
    for _ in range(m):
        vs = rng.sample(range(1, n + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return _dimacs(n, clauses)


def planted_3cnf(rng: Random, n: int, m: int) -> str:
    """Random 3-CNF with every clause satisfied by one hidden assignment."""
    hidden = [rng.random() < 0.5 for _ in range(n + 1)]
    clauses = []
    while len(clauses) < m:
        vs = rng.sample(range(1, n + 1), 3)
        c = [v if rng.random() < 0.5 else -v for v in vs]
        if any(hidden[abs(l)] == (l > 0) for l in c):
            clauses.append(c)
    return _dimacs(n, clauses)


# Random 3-CNF at 5.0 clauses per variable lies far enough past the 4.26
# threshold to be UNSAT in practice; planted formulas are SAT by
# construction.  A fixed verdict mix keeps the work of a pass nearly the
# same from seed to seed.
UNSAT_RATIO = 5.0
PLANTED_RATIO = 4.26


def _spread(rng: Random, count: int, lo: float, hi: float) -> list[float]:
    """count values, one per equal slice of [lo, hi), in seeded order."""
    slots = list(range(count))
    rng.shuffle(slots)
    return [lo + (hi - lo) * (s + rng.random()) / count for s in slots]


def _cycle(rng: Random, values, count: int) -> list:
    out = [values[i % len(values)] for i in range(count)]
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# sched_synth: 64 synthetic jobs, open loop, on 64 simulated PEs

SYNTH_JOBS = 64
SYNTH_SPAN_S = 3.0


def sched_synth(seed: int) -> Inputs:
    rng = rng_for(seed, "sched_synth")
    n = SYNTH_JOBS
    lines = [json.dumps({"type": "config", "num_pes": 64, "threads": 1,
                         "epsilon": 0.05, "seed": seed, "timeout_s": 60.0})]
    durations = _spread(rng, n, 0.3, 1.2)
    priorities = _cycle(rng, (0.2, 0.4, 0.6, 0.8), n)
    # None ramps up from one PE by doubling, the others ask at once.
    demands = _cycle(rng, (1, 2, 4, 8, 16, 2, 4, None), n)
    jobs = []
    for i in range(n):
        arrival = SYNTH_SPAN_S * (i + rng.random()) / n
        job = {"type": "job", "job": i + 1, "priority": priorities[i],
               "arrival": round(arrival, 4), "synthetic": round(durations[i], 4)}
        if demands[i] is not None:
            job["demand"] = demands[i]
        jobs.append(job)
    lines += [json.dumps(j) for j in jobs]
    # A few demand changes while the longest jobs run.
    longest = sorted(jobs, key=lambda j: (-j["synthetic"], j["job"]))[:6]
    for k, j in enumerate(sorted(longest, key=lambda j: j["job"])):
        lines.append(json.dumps({"type": "demand",
                                 "at": round(j["arrival"] + 0.25, 4),
                                 "job": j["job"], "demand": (1, 12)[k % 2]}))
    return Inputs(scenarios=["\n".join(lines) + "\n"])


# ---------------------------------------------------------------------------
# mono_cnf: the sharing criterion's mono configuration on a seeded corpus

MONO_RANDOM = 24
MONO_PLANTED = 4


def mono_cnf(seed: int) -> Inputs:
    rng = rng_for(seed, "mono_cnf")
    out = Inputs(config=dict(num_pes=8, threads=2, sharing=True, timeout_s=120.0,
                             share_period_s=0.02, balance_period_s=0.02,
                             cdcl_rate=1.0, seed=seed))
    for i in range(MONO_RANDOM):
        text = random_3cnf(rng, 90, round(90 * UNSAT_RATIO))
        out.instances.append(Instance(f"rand{i}", text))
    for i in range(MONO_PLANTED):
        text = planted_3cnf(rng, 90, round(90 * PLANTED_RATIO))
        out.instances.append(Instance(f"planted{i}", text))
    return out


# ---------------------------------------------------------------------------
# jobs_cnf: a stream of CNF jobs with demand churn on 16 simulated PEs

CNF_SCENARIOS = 4
CNF_JOBS = 10


def jobs_cnf(seed: int) -> Inputs:
    """Independent job streams, run one after the other in a pass."""
    out = Inputs()
    for k in range(CNF_SCENARIOS):
        _job_stream(rng_for(seed, "jobs_cnf", k), seed * CNF_SCENARIOS + k, f"s{k}", out)
    return out


def _job_stream(rng: Random, cluster_seed: int, prefix: str, out: Inputs) -> None:
    n = CNF_JOBS
    # The job mix is a fixed pattern; the seed draws the formulas, the
    # arrival jitter and the cluster's own randomness.  Queueing makes a
    # job's response depend on the jobs before it, so the order is kept.
    sizes = [70 + (30 * ((3 * i) % n)) // (n - 1) for i in range(n)]
    planted = [i % 3 == 2 for i in range(n)]
    priorities = [(0.3, 0.5, 0.7, 0.9)[i % 4] for i in range(n)]
    demands = [(None, 6, None, 10)[i % 4] for i in range(n)]
    # Simulated SLS speed keeps the default 20 flips per conflict.
    lines = [json.dumps({"type": "config", "num_pes": 16, "threads": 2,
                         "seed": cluster_seed, "max_jobs": 4, "sharing": True,
                         "share_period_s": 0.05, "balance_period_s": 0.05,
                         "cdcl_rate": 0.2, "sls_rate": 4.0, "timeout_s": 120.0})]
    for i in range(n):
        nv = sizes[i]
        if planted[i]:
            text = planted_3cnf(rng, nv, round(PLANTED_RATIO * nv))
        else:
            text = random_3cnf(rng, nv, round(UNSAT_RATIO * nv))
        name = f"{prefix}_job{i + 1}.cnf"
        out.instances.append(Instance(name, text))
        job = {"type": "job", "job": i + 1, "file": name,
               "priority": priorities[i],
               "arrival": round(0.1 * i + 0.02 * rng.random(), 4)}
        if demands[i] is not None:
            job["demand"] = demands[i]
        lines.append(json.dumps(job))
    # Shrink three early jobs mid-solve, then let them grow back.
    for k, job in enumerate((1, 2, 3)):
        at = 0.1 * (job - 1) + 0.15
        lines.append(json.dumps({"type": "demand", "at": round(at, 3),
                                 "job": job, "demand": 1 + k}))
        lines.append(json.dumps({"type": "demand", "at": round(at + 0.15, 3),
                                 "job": job, "demand": 12}))
    out.scenarios.append("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# real_mono: threaded real mode on one hard formula, fixed wall budget

REAL_BUDGET_S = 2.0


def real_mono(seed: int) -> Inputs:
    rng = rng_for(seed, "real_mono")
    out = Inputs(config=dict(num_pes=2, threads=2, sim=False, seed=seed,
                             timeout_s=REAL_BUDGET_S, share_period_s=0.1,
                             balance_period_s=0.1))
    out.instances.append(Instance("hard300", random_3cnf(rng, 300, 1350)))
    return out


GENERATORS = {
    "sched_synth": sched_synth,
    "mono_cnf": mono_cnf,
    "jobs_cnf": jobs_cnf,
    "real_mono": real_mono,
}

"""The two kinds of run: untraced end-to-end figures, and a traced per-layer run.

Metric names, units and directions live in BENCHMARK.json; this module
computes a superset of them.  End-to-end figures come from untraced passes;
the traced run repeats one pass under `tracing.instrument` and reports
per-layer figures, the tracing overhead, and whether tracing left the
simulated trace byte-identical.
"""
from __future__ import annotations

import contextlib
import gc
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

from flexsat.harness.metrics import par2

from runners import JobOutcome, PassResult, Runner
from speed import SpeedProbe
from tracing import Tracer, instrument

SETUP_REPS = 7          # at least this many set-ups per run ...
SETUP_SHARE = 0.05      # ... and at least this share of --seconds spent on them


@dataclass
class Result:
    """What one invocation prints: metrics plus the correctness tally."""

    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def tally(self, outcomes: list[JobOutcome]) -> None:
        self.attempted += len(outcomes)
        for o in outcomes:
            if not o.ok:
                self.failed += 1
                self.problems.append(f"{o.key}: {o.reason}")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_setup(runner: Runner, spans: list):
    gc.collect()
    t0 = time.perf_counter()
    prepared = runner.setup()
    spans.append((t0, time.perf_counter()))
    return prepared


def _run_pass(runner: Runner, prepared, result: Result, region=None):
    """One pass with its verdicts judged; None if the program raised."""
    try:
        res = runner.run(prepared, region)
    except Exception:  # a crash fails the pass's jobs; report it and stop
        traceback.print_exc(file=sys.stderr)
        result.attempted += 1
        result.failed += 1
        result.problems.append("pass raised an exception")
        return None
    outcomes = runner.judge(res)
    result.tally(outcomes)
    return res, outcomes


# ---------------------------------------------------------------------------
# figures of the paper and of the run, from reports and judged outcomes

def quality(runner: Runner, passes: list[PassResult],
            outcomes: list[list[JobOutcome]]) -> dict[str, float]:
    """Scheduling and solving figures.  Simulated runs repeat exactly, so the
    first pass speaks for all; real mode takes the median over passes."""
    per_pass = [_quality_one(runner, p, o) for p, o in zip(passes, outcomes)]
    if runner.sim:
        return per_pass[0]
    return {k: statistics.median(q[k] for q in per_pass) for k in per_pass[0]}


def _quality_one(runner: Runner, res: PassResult, outs: list[JobOutcome]) -> dict:
    m: dict[str, float] = {}
    responses = sorted(o.response_ms for o in outs)
    m["response_p50_ms"] = statistics.median(responses)
    lats = [o.latency_ms for o in outs if o.latency_ms is not None]
    m["placement_latency_p50_ms"] = statistics.median(lats) if lats else 0.0
    n = len(responses)
    # Highest percentile with at least ten samples beyond it.
    if n >= 20:
        m["response_tail_ms"] = responses[n - 11]
        m["response_tail.pct"] = 100.0 * (n - 10) / n
    else:
        m["response_tail_ms"] = m["response_tail.pct"] = 0.0
    m["response_tail.samples"] = n

    loaded = saturated = fresh = volume = 0
    for rep in res.reports:
        budget = rep.config.get("budget")
        busy = rep.aggregates.get("busy", [])
        start = next((t for t, b, _a in busy if b >= budget), None)
        if start is not None:
            window = [b for t, b, a in busy if t >= start and a >= 2]
            loaded += len(window)
            saturated += sum(1 for b in window if b >= budget)
        fresh += rep.aggregates.get("fresh_starts", 0)
        volume += rep.aggregates.get("volume_total", 0)
    m["busy_ratio"] = _ratio(saturated, loaded)
    m["over_transfer"] = _ratio(fresh, volume)

    cnf_outs = [o for o in outs if o.cnf]
    limit = res.reports[0].config.get("timeout_s", 0.0)
    m["par2_s"] = par2(
        [(o.ok and not o.timed_out and o.verdict in ("SAT", "UNSAT"),
          o.response_ms / 1000.0) for o in cnf_outs], limit) if cnf_outs else 0.0
    m["workload.sat_jobs"] = sum(1 for o in cnf_outs if o.verdict == "SAT")
    m["workload.unsat_jobs"] = sum(1 for o in cnf_outs if o.verdict == "UNSAT")
    if runner.sim:
        m["real_conflicts_per_s"] = 0.0
    else:
        conflicts = sum(r.solver_totals.get("conflicts", 0) for r in res.reports)
        m["real_conflicts_per_s"] = conflicts / runner.inputs.config["timeout_s"]
    return m


# ---------------------------------------------------------------------------
# untraced: end-to-end figures

def measure_end_to_end(runner: Runner, seconds: float) -> tuple[Result, dict]:
    """Set-ups and passes for about `seconds`; CPU-bound times rescaled by
    the speed probe, real-mode runs (bound by their budget) left raw."""
    result = Result()
    runner.prepare_references()
    setups: list[tuple[float, float]] = []
    passes: list[PassResult] = []
    outcomes: list[list[JobOutcome]] = []
    with SpeedProbe() as probe:
        start = time.perf_counter()
        while len(setups) < SETUP_REPS or time.perf_counter() - start < SETUP_SHARE * seconds:
            _timed_setup(runner, setups)
        start = time.perf_counter()
        while True:
            prepared = _timed_setup(runner, setups)
            with probe.paused() if not runner.sim else contextlib.nullcontext():
                got = _run_pass(runner, prepared, result)
            if got is None:
                break
            passes.append(got[0])
            outcomes.append(got[1])
            pass_s = statistics.median(p.wall_s for p in passes)
            if time.perf_counter() - start + pass_s > seconds:
                break
        setup_s = [probe.reference_s(a, b) for a, b in setups]
        walls = [sum(probe.reference_s(a, b) for a, b in p.intervals) if runner.sim
                 else p.wall_s for p in passes]
    if not passes:
        return result, {}
    m = result.metrics
    m.update(quality(runner, passes, outcomes))
    m["setup_s"] = statistics.median(setup_s)
    m["wall_s"] = statistics.median(walls)
    m["wall_per_sim_s"] = statistics.median(w / p.sim_s for w, p in zip(walls, passes))
    m["peak_rss_mib"] = peak_rss_mib()
    m["fail_frac"] = _ratio(result.failed, result.attempted)
    return result, {"passes": len(passes), "setups": len(setups),
                    "raw_setup_s": statistics.median(b - a for a, b in setups),
                    "raw_wall_s": statistics.median(p.wall_s for p in passes)}


# ---------------------------------------------------------------------------
# traced: per-layer figures

def measure_layers(runner: Runner, spans_path: str) -> tuple[Result, dict]:
    result = Result()
    runner.prepare_references()
    got = _run_pass(runner, _timed_setup(runner, []), result)
    if got is None:
        return result, {}
    plain, plain_outs = got
    tracer = Tracer()
    with instrument(tracer):
        got = _run_pass(runner, runner.setup(), result, region=tracer.region)
    if got is None:
        return result, {}
    traced = got[0]
    tracer.write_spans(spans_path)

    # Real-mode traces follow thread timing and never repeat; only a
    # simulated trace must come out byte-identical under tracing.
    identical = runner.sim and all(
        a.trace == b.trace for a, b in zip(plain.reports, traced.reports))
    if runner.sim and not identical:
        result.problems.append("tracing changed the simulated trace")

    m = result.metrics
    m.update(quality(runner, [plain], [plain_outs]))
    m["fail_frac"] = _ratio(result.failed, result.attempted)
    m["trace.overhead_ratio"] = traced.wall_s / plain.wall_s - 1.0
    m["trace.identical"] = 1.0 if identical else 0.0
    m["runtime.real.linger_s"] = plain.linger_s
    m["runtime.trace_lines"] = sum(len(r.trace) for r in plain.reports)
    m.update(layer_metrics(tracer, plain.wall_s, plain_outs, plain.reports))
    return result, {"plain_wall_s": plain.wall_s, "traced_wall_s": traced.wall_s}


def _winner(done_line: str) -> str:
    for token in done_line.split():
        if token.startswith("winner="):
            return token[len("winner="):]
    return ""


def layer_metrics(tracer: Tracer, plain_s: float, outs: list[JobOutcome],
                  reports: list) -> dict:
    spans = tracer.layer_totals()
    c = tracer.counts()
    m: dict[str, float] = {}

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    for name in ("sched.compute_volumes", "exchange.serialize", "exchange.merge",
                 "exchange.deserialize"):
        m[name + ".calls"] = calls(name)
        m[name + ".s"] = self_s(name)
        m[name + ".us_per_call"] = _ratio(self_s(name), calls(name)) * 1e6
    cv = calls("sched.compute_volumes")
    m["sched.compute_volumes.jobs_mean"] = _ratio(c["sched.compute_volumes.jobs"], cv)
    m["sched.compute_volumes.waterfill_frac"] = _ratio(
        c["sched.compute_volumes.waterfill"], cv)
    m["sched.apply_events.s"] = self_s("sched.apply_events")
    m["sched.consolidate.s"] = self_s("sched.consolidate")
    routes = calls("sched.route_request")
    m["sched.route_request.calls"] = routes
    m["sched.route.useful_ratio"] = _ratio(
        c["sched.route.adopt"] + c["sched.route.resume"], routes)

    events = calls("runtime.on_envelope") + calls("runtime.on_timer")
    m["runtime.events"] = events
    m["runtime.events_per_s"] = _ratio(events, plain_s)
    m["runtime.self_s"] = sum(v["self_s"] for k, v in spans.items()
                              if k.startswith("runtime."))
    m["runtime.msgs"] = c["runtime.msgs"]
    m["runtime.msg_ints"] = c["runtime.msg_ints"]

    m["solver.init.s"] = self_s("solver.init")
    cdcl_s, sls_s = self_s("solver.cdcl.step"), self_s("solver.sls.step")
    m["solver.cdcl.steps"] = calls("solver.cdcl.step")
    m["solver.cdcl.s"] = cdcl_s
    m["solver.cdcl.conflicts"] = c["solver.cdcl.conflicts"]
    m["solver.cdcl.conflicts_per_s"] = _ratio(c["solver.cdcl.conflicts"], cdcl_s)
    m["solver.cdcl.props_per_s"] = _ratio(c["solver.cdcl.props"], cdcl_s)
    m["solver.sls.steps"] = calls("solver.sls.step")
    m["solver.sls.s"] = sls_s
    m["solver.sls.flips"] = c["solver.sls.flips"]
    m["solver.sls.flips_per_s"] = _ratio(c["solver.sls.flips"], sls_s)
    m["solver.sls.time_share"] = _ratio(sls_s, cdcl_s + sls_s)
    won = [o for o in outs if o.cnf and o.verdict in ("SAT", "UNSAT")]
    sls_wins = sum(1 for rep in reports for line in rep.trace
                   if " DONE " in line and _winner(line).endswith(".sls"))
    m["solver.sls.win_ratio"] = _ratio(sls_wins, len(won))
    m["solver.ring.drop_ratio"] = _ratio(c["solver.ring.drops"], c["solver.ring.pushes"])
    m["solver.import.accept_ratio"] = _ratio(c["solver.import.accepted"],
                                             c["solver.import.checked"])

    m["exchange.filter.ops"] = c["exchange.filter.ops"]
    m["exchange.filter.s"] = self_s("exchange.filter")
    m["exchange.filter.admit_ratio"] = _ratio(c["exchange.filter.admitted"],
                                              c["exchange.filter.ops"])
    m["exchange.filter.mib"] = c["exchange.filter.mib"]
    m["exchange.merge.fill"] = _ratio(c["exchange.merge.out_ints"],
                                      c["exchange.merge.limit_ints"])
    m["exchange.merge.kept_ratio"] = _ratio(c["exchange.merge.out_ints"],
                                            c["exchange.merge.in_ints"])
    m["exchange.merge.u_max"] = c["exchange.merge.u_max"]

    parse_s = self_s("formula.parse_dimacs")
    m["formula.parse_dimacs.s"] = parse_s
    m["formula.parse_dimacs.lits_per_s"] = _ratio(c["formula.parse_dimacs.lits"], parse_s)
    m["formula.check_model.s"] = self_s("formula.check_model")
    m["harness.parse_scenario.s"] = self_s("harness.parse_scenario")
    m["harness.report_from_trace.s"] = self_s("harness.report_from_trace")
    return m

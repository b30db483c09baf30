"""Cluster runtime: transports, mono runs, malleability, determinism."""
import gc
import hashlib
import heapq
import json
import math
import operator
import threading
import time
import weakref
from collections import Counter
from dataclasses import replace
from random import Random
from types import MappingProxyType

import pytest

from flexsat.exchange import ClauseFilter
from flexsat.formula import Cnf, check_model
from flexsat.harness.report import parse_trace_line
from flexsat.runtime import Cluster, ClusterConfig, Envelope, mono_mode
from flexsat.runtime import cluster as cluster_mod
from flexsat.runtime import pe as pe_mod
from flexsat.runtime import transport as tp
from flexsat.runtime.transport import RealContext, SimLoop, Trace, WallLoop, format_time_ms
from flexsat.sched import JobDescriptor, JobInfo, JobRequest
from flexsat.solver.cdcl import CdclSolver, cdcl_solve
from flexsat.solver.sls import SlsSolver
from flexsat.util import below
from helpers import php_cnf, random_3cnf, synth_cluster


def small_cfg(**kw):
    base = dict(num_pes=6, threads=1, epsilon=0.0, seed=5, timeout_s=30.0,
                balance_period_s=0.1)
    base.update(kw)
    return ClusterConfig(**base)


# ---------------------------------------------------------------------------
# config


def test_budget_formula():
    assert ClusterConfig(num_pes=16, epsilon=0.05).budget == 14
    assert ClusterConfig(num_pes=8, epsilon=0.0).budget == 7
    assert ClusterConfig(num_pes=10, epsilon=0.2).budget == 7


def test_config_validation():
    ClusterConfig().validate()
    jobs = [JobDescriptor(job=1, priority=0.5, arrival_s=0.0, synthetic_s=1.0)]
    with pytest.raises(ValueError, match="num_pes must be >= 2"):
        ClusterConfig(num_pes=1).validate()
    with pytest.raises(ValueError, match="budget"):
        ClusterConfig(num_pes=2, epsilon=0.9).validate()
    with pytest.raises(ValueError, match="alpha"):
        ClusterConfig(alpha=0.3).validate()
    with pytest.raises(ValueError, match="timeout"):
        ClusterConfig(timeout_s=0).validate()
    with pytest.raises(ValueError, match="share_period_s must be >= 1e-06"):
        ClusterConfig(share_period_s=0.0).validate()
    for bad in (0, -1):
        with pytest.raises(ValueError, match="max_jobs"):
            ClusterConfig(max_jobs=bad).validate()
        with pytest.raises(ValueError, match="max_jobs"):
            Cluster(ClusterConfig(num_pes=4), jobs, max_jobs=bad)
    # A negative half life would never let the forget loop catch up; it is
    # refused before any PE exists, so the run that would hang never starts.
    with pytest.raises(ValueError, match="filter_halflife_s"):
        ClusterConfig(filter_halflife_s=-0.5).validate()
    with pytest.raises(ValueError, match="filter_halflife_s"):
        Cluster(ClusterConfig(num_pes=4, filter_halflife_s=-0.5), jobs)
    ClusterConfig(max_jobs=1).validate()
    for off in (None, 0, 0.0):  # each means: never forget
        ClusterConfig(filter_halflife_s=off).validate()
    assert Cluster(ClusterConfig(num_pes=4), jobs,
                   max_jobs=1).cfg.max_jobs == 1


@pytest.mark.parametrize("kw,msg", [
    # under 1 µs once converted, a period re-arms its timer forever; a
    # balancing epoch re-arms no sooner than 1 ms
    (dict(balance_period_s=1e-9), "balance_period_s must be >= 0.001"),
    (dict(share_period_s=9.99e-7), "share_period_s must be >= 1e-06"),
    # values are checked as written: bools are not ints, strings not numbers
    (dict(num_pes=8.5), "num_pes 8.5 is not an integer"),
    (dict(seed=1.5), "seed 1.5 is not an integer"),
    (dict(threads=True), "threads True is not an integer"),
    (dict(beta=1500.0), "beta 1500.0 is not an integer"),
    (dict(max_jobs="2"), "max_jobs '2' is not an integer"),
    (dict(sharing="no"), "sharing 'no' is not true or false"),
    (dict(sim=1), "sim 1 is not true or false"),
    (dict(alpha="0.9"), "alpha '0.9' is not a finite number"),
    (dict(epsilon=False), "epsilon False is not a finite number"),
    # NaN and infinities are refused for every real
    (dict(timeout_s=math.inf), "timeout_s inf is not a finite number"),
    (dict(balance_period_s=math.nan), "balance_period_s nan is not a finite number"),
    (dict(share_period_s=math.inf), "share_period_s inf is not a finite number"),
    (dict(cdcl_rate=math.nan), "cdcl_rate nan is not a finite number"),
    (dict(sls_rate=math.inf), "sls_rate inf is not a finite number"),
    (dict(epsilon=-math.inf), "epsilon -inf is not a finite number"),
    (dict(alpha=math.nan), "alpha nan is not a finite number"),
    (dict(filter_halflife_s=math.inf), "filter_halflife_s inf is not a finite number"),
    # a finite time too large for integer µs or for the wall loop's wait
    (dict(timeout_s=1e308), "timeout_s must be <= 1000000000"),
    (dict(share_period_s=1e308), "share_period_s must be <= 1000000000"),
    (dict(balance_period_s=1e10), "balance_period_s must be <= 1000000000"),
    (dict(filter_halflife_s=1e308), "filter_halflife_s must be <= 1000000000"),
    # a finite rate whose slice budget would overflow an integer count
    (dict(cdcl_rate=1e308), "cdcl_rate must be <= 1000000000"),
    (dict(sls_rate=1e10), "sls_rate must be <= 1000000000"),
    (dict(sls_rate=0.0), "sls_rate must be > 0"),
    # the remaining bounds of the config table
    (dict(threads=0), "threads must be >= 1"),
    (dict(cdcl_rate=0.0), "cdcl_rate must be > 0"),
    (dict(epsilon=-0.1), "epsilon must be >= 0"),
    (dict(epsilon=1.0), "epsilon must be < 1"),
    (dict(alpha=0.49), "alpha must be >= 0.5"),
    (dict(alpha=1.01), "alpha must be <= 1.0"),
    (dict(beta=0), "beta must be >= 1"),
])
def test_config_validate_rejects_as_written(kw, msg):
    with pytest.raises(ValueError, match=msg):
        ClusterConfig(**kw).validate()


def test_config_validate_accepts_floor_and_integral_reals():
    cfg = ClusterConfig(balance_period_s=1e-3, share_period_s=1e-6,
                        timeout_s=60, epsilon=0, alpha=1, filter_halflife_s=2)
    cfg.validate()
    assert int(cfg.balance_period_s * 1e6) == 1000
    assert int(cfg.share_period_s * 1e6) == 1


@pytest.mark.parametrize("cdcl_rate,slice_ms,budgets", [
    (None, 0.5, (10, 200)), (None, 2.0, (40, 800)), (None, 3.0, (60, 1200)),
    (0.05, 0.5, (1, 1)), (0.05, 2.0, (1, 2)), (0.05, 3.0, (1, 3)),
    (0.2, 0.5, (1, 2)), (0.2, 2.0, (1, 8)), (0.2, 3.0, (1, 12)),
    (0.3, 0.5, (1, 3)), (0.3, 2.0, (1, 12)), (0.3, 3.0, (1, 18)),
    (1.0, 0.5, (1, 10)), (1.0, 2.0, (2, 40)), (1.0, 3.0, (3, 60)),
    (1.5, 0.5, (1, 15)), (1.5, 2.0, (3, 60)), (1.5, 3.0, (4, 90)),
])
def test_unset_sls_rate_runs_twenty_flips_per_conflict(cdcl_rate, slice_ms, budgets,
                                                      monkeypatch):
    # At any slice length, an unset sls_rate gives exactly the slice budgets
    # of an explicit 20 x cdcl_rate; a rate under one unit per slice runs one.
    monkeypatch.setattr(cluster_mod, "SLICE_MS", slice_ms)
    rate = {} if cdcl_rate is None else {"cdcl_rate": cdcl_rate}
    unset = ClusterConfig(num_pes=3, **rate)
    explicit = replace(unset, sls_rate=20 * unset.cdcl_rate)
    for cfg in (unset, explicit):
        shared = Cluster(cfg, []).shared
        assert (shared.cdcl_per_slice, shared.sls_per_slice) == budgets
        assert type(shared.sls_per_slice) is int


def test_unset_sls_rate_trace_matches_explicit_rate():
    # Seven nodes of two slots reach x=13, the portfolio's SLS slot.
    cnf = random_3cnf(Random(11), 60, 250)
    cfg = small_cfg(num_pes=8, threads=2, share_period_s=0.05, cdcl_rate=0.3)
    unset = mono_mode(cnf, cfg)
    assert unset.jobs[1]["verdict"] == "SAT"
    assert unset.solver_totals["flips"] > 0
    assert unset.trace == mono_mode(cnf, replace(cfg, sls_rate=6.0)).trace
    assert unset.trace != mono_mode(cnf, replace(cfg, sls_rate=400.0)).trace


def test_public_dict_keys():
    assert sorted(ClusterConfig().public_dict()) == sorted([
        "num_pes", "threads", "budget", "epsilon", "balance_period_s",
        "share_period_s", "alpha", "beta", "sharing", "seed", "sim",
        "timeout_s", "filter_halflife_s"])


# ---------------------------------------------------------------------------
# transport


def test_format_time_ms():
    assert format_time_ms(1234567) == "1234.567"
    assert format_time_ms(5) == "0.005"
    assert format_time_ms(0) == "0.000"


def test_trace_renders_jobless_lines():
    tr = Trace()
    tr.add(1500, -1, "RUN_END", None, "reason=timeout")
    tr.add(2000, 4, "START", 7, "x=0 mode=fresh")
    assert tr.lines() == ["1.500 -1 RUN_END - reason=timeout",
                          "2.000 4 START 7 x=0 mode=fresh"]


def _drain(loop):
    got = []
    loop.run(lambda pe, env: got.append((loop.now, env.src, env.payload["i"])),
             lambda pe, tag, data: None, lambda: False, 10 ** 9)
    return got


def test_simloop_per_pair_fifo_despite_jitter(monkeypatch):
    monkeypatch.setattr(tp, "JITTER_US", 80)
    loop = SimLoop(seed=3)
    for i in range(60):
        loop.post_message(Envelope("K", i % 3, 5, None, {"i": i}))
    got = _drain(loop)
    assert len(got) == 60
    per_src = {}
    for t, src, i in got:
        if src in per_src:
            last_t, last_i = per_src[src]
            assert t >= last_t and i > last_i  # FIFO per (src, dst) pair
        per_src[src] = (t, i)


def test_simloop_deterministic_per_seed():
    def run(seed):
        loop = SimLoop(seed=seed)
        for i in range(40):
            loop.post_message(Envelope("K", 0, 1, None, {"i": i}))
        return _drain(loop)

    assert run(9) == run(9)
    assert run(9) != run(10)


class ReferencePostLoop(SimLoop):
    """SimLoop with post_message as it was before the jitter draw, the FIFO
    clamp and the push were inlined: util.below, max and a push helper."""

    def post_message(self, env, extra_delay_us=0):
        jitter = below(self._getrandbits, tp.JITTER_US + 1)
        t = self.now + extra_delay_us + tp.LATENCY_US + jitter
        key = (env.src, env.dst)
        t = max(t, self._pair_last.get(key, 0))
        self._pair_last[key] = t
        self._seq += 1
        heapq.heappush(self._heap, (t, self._seq, tp._EV_MSG, env.dst, env, None))


@pytest.mark.parametrize("jitter_us", [0, 1, 50, 63, 64, 80])
def test_simloop_posts_like_the_reference_post_message(monkeypatch, jitter_us):
    """The inlined post_message against the one it replaced, on twin loops:
    over 3 000 posts among three PEs, with extra delays that force FIFO
    clamps and partial drains that move the clock, every delivery time and
    order and the latency generator's state stay the same."""
    monkeypatch.setattr(tp, "JITTER_US", jitter_us)
    rng = Random(jitter_us)
    loops = [SimLoop(seed=11), ReferencePostLoop(seed=11)]
    got = [[], []]
    clamps = 0

    def deliver(loop, out, until):
        loop.run(lambda pe, env: out.append((loop.now, pe, env.payload["i"])),
                 lambda pe, tag, data: None, lambda: False, until)

    for i in range(3000):
        src, dst = rng.randrange(3), rng.randrange(3)
        extra = rng.choice((0, 0, 0, 30, rng.randrange(1000)))
        ref = loops[1]
        clamps += (ref.now + extra + tp.LATENCY_US + jitter_us
                   < ref._pair_last.get((src, dst), -1))
        for loop in loops:
            loop.post_message(Envelope("K", src, dst, None, {"i": i}), extra)
        if i % 7 == 6:  # move both clocks, as handled events do
            until = loops[0].now + rng.randrange(400)
            for loop, out in zip(loops, got):
                deliver(loop, out, until)
    for loop, out in zip(loops, got):
        deliver(loop, out, 10 ** 12)
    assert got[0] == got[1] and len(got[0]) == 3000
    assert loops[0]._getrandbits.__self__.getstate() == loops[1]._getrandbits.__self__.getstate()
    assert clamps >= 300


# One seeded pass in the sched_synth shape at p=64, counted on the exactly
# regular PE graph: events handled by kind and timer tag, and messages
# posted by kind.  A posted message that the run never handles is one
# still in flight when the client finishes.
SYNTH_COUNTS = {
    1: ({"ABORT": 230, "ADOPT_ACK": 337, "EVENT_BROADCAST": 2331, "EVENT_REDUCE": 2457,
         "JOB_PAYLOAD": 329, "JOB_REQUEST": 2574, "RESULT": 64, "VOLUME_UPDATE": 1254,
         "balance": 2496, "demand": 2, "intro": 64, "step": 337, "synth": 64},
        {"ABORT": 234, "ADOPT_ACK": 337, "EVENT_BROADCAST": 2331, "EVENT_REDUCE": 2457,
         "JOB_PAYLOAD": 329, "JOB_REQUEST": 2574, "RESULT": 64, "VOLUME_UPDATE": 1254}),
    5: ({"ABORT": 233, "ADOPT_ACK": 337, "EVENT_BROADCAST": 2457, "EVENT_REDUCE": 2457,
         "JOB_PAYLOAD": 326, "JOB_REQUEST": 2539, "RESULT": 64, "VOLUME_UPDATE": 1312,
         "balance": 2496, "demand": 2, "intro": 64, "step": 336, "synth": 64},
        {"ABORT": 235, "ADOPT_ACK": 337, "EVENT_BROADCAST": 2457, "EVENT_REDUCE": 2457,
         "JOB_PAYLOAD": 326, "JOB_REQUEST": 2539, "RESULT": 64, "VOLUME_UPDATE": 1312}),
}


@pytest.mark.parametrize("seed", sorted(SYNTH_COUNTS))
def test_synth_run_handles_and_posts_the_pinned_counts(monkeypatch, seed):
    """A lost, extra or re-routed message leaves the trace digests blind
    when it changes no logged line; these counts see it."""
    handled, posted = Counter(), Counter()
    orig_env, orig_timer = pe_mod.BasePE.on_envelope, pe_mod.BasePE.on_timer
    orig_post = SimLoop.post_message

    def on_envelope(self, env):
        handled[env.kind] += 1
        orig_env(self, env)

    def on_timer(self, tag, data):
        handled[tag] += 1
        orig_timer(self, tag, data)

    def post_message(self, env, extra_delay_us=0):
        posted[env.kind] += 1
        orig_post(self, env, extra_delay_us)

    monkeypatch.setattr(pe_mod.BasePE, "on_envelope", on_envelope)
    monkeypatch.setattr(pe_mod.BasePE, "on_timer", on_timer)
    monkeypatch.setattr(SimLoop, "post_message", post_message)
    report = synth_cluster(64, 64, seed).run()
    assert report.aggregates["solved"] == 64
    assert (dict(handled), dict(posted)) == SYNTH_COUNTS[seed]


def test_wall_loop_timers_inbox_stop_and_timeout():
    loop, events = WallLoop(), []
    loop.post_timer(2, 30_000, "late", None)
    loop.post_timer(1, 10_000, "early", None)
    loop.post_timer(5, 0, "due", None)
    RealContext(3, Random(0), loop, Trace()).send(Envelope("K", 3, 4, None, {}))
    start = time.monotonic()
    loop.run(lambda dst, env: events.append((loop.now, "msg", dst)),
             lambda pe, tag, data: events.append((loop.now, tag, pe)),
             lambda: len(events) == 4, timeout_us=10 ** 7)
    # A queued envelope goes before a due timer.
    assert [e[1:] for e in events] == [("msg", 4), ("due", 5), ("early", 1), ("late", 2)]
    assert events[2][0] >= 10_000 and events[3][0] >= 30_000  # never early
    assert time.monotonic() - start < 5.0  # should_stop, not the timeout, ended it
    # With nothing to do, the timeout ends the run.
    loop = WallLoop()
    loop.run(lambda dst, env: None, lambda pe, tag, data: None, lambda: False, 50_000)
    assert 50_000 <= loop.now < 5_000_000


def test_wall_loop_runs_due_steps_last():
    # A solver step holds the loop for a slice, so it waits for queued
    # envelopes and due timers, even ones posted after it.
    loop, events = WallLoop(), []
    loop.post_timer(1, 0, "step", None)
    loop.post_timer(2, 20_000, "step", None)
    loop.post_timer(3, 0, "balance", None)
    RealContext(4, Random(0), loop, Trace()).send(Envelope("K", 4, 5, None, {}))
    loop.run(lambda dst, env: events.append((loop.now, "msg", dst)),
             lambda pe, tag, data: events.append((loop.now, tag, pe)),
             lambda: len(events) == 4, timeout_us=10 ** 7)
    assert [e[1:] for e in events] == [("msg", 5), ("balance", 3), ("step", 1), ("step", 2)]
    assert events[3][0] >= 20_000  # a step heap's head is slept for, never early


def test_simloop_timer_order(monkeypatch):
    monkeypatch.setattr(tp, "LATENCY_US", 0)
    monkeypatch.setattr(tp, "JITTER_US", 0)
    loop = SimLoop(seed=0)
    fired = []
    loop.post_timer(1, 500, "b", None)
    loop.post_timer(1, 100, "a", None)
    loop.post_timer(2, 100, "c", None)
    loop.run(lambda pe, env: None,
             lambda pe, tag, data: fired.append((loop.now, pe, tag)),
             lambda: False, 10 ** 9)
    assert fired == [(100, 1, "a"), (100, 2, "c"), (500, 1, "b")]


# ---------------------------------------------------------------------------
# mono runs


def test_mono_agrees_with_direct_cdcl():
    cnf = random_3cnf(Random(11), 60, 246)
    direct = cdcl_solve(cnf, seed=0)
    report = mono_mode(cnf, small_cfg(num_pes=4, threads=2, seed=3))
    assert report.jobs[1]["verdict"] == direct.verdict
    if direct.verdict == "SAT":
        model = report.models[1]
        assert model is not None
        assert check_model(cnf, model)
    assert report.aggregates["end_reason"] == "all-done"


def test_mono_unsat():
    report = mono_mode(php_cnf(4), small_cfg(num_pes=4, threads=2))
    assert report.jobs[1]["verdict"] == "UNSAT"
    assert report.models.get(1) is None


def test_mono_root_waits_for_first_volume():
    cnf = random_3cnf(Random(11), 60, 246)
    report = mono_mode(cnf, small_cfg(num_pes=4, threads=2, seed=3))
    lines = report.trace
    first_start = next(i for i, l in enumerate(lines)
                       if " START 1 x=0" in l)
    first_volume = next(i for i, l in enumerate(lines)
                        if " VOLUME 1 " in l and " v=0 " not in l)
    assert first_volume < first_start
    assert report.jobs[1]["placed_ms"] < float(lines[first_start].split()[0])


def test_mono_tears_down_after_done():
    report = mono_mode(php_cnf(3), small_cfg(num_pes=4))
    assert any(" END " in l and "reason=done" in l for l in report.trace)


def test_mono_deterministic_trace():
    cnf = random_3cnf(Random(23), 40, 168)

    def run():
        return mono_mode(cnf, small_cfg(num_pes=5, threads=2, seed=8)).trace

    assert run() == run()


def test_mono_filters_forget_at_run_time(monkeypatch):
    """A filter half life makes every CDCL slot's filter forget while the
    solvers share clauses; the verdict and the trace do not depend on luck."""
    made, calls = [], Counter()
    init, forget = ClauseFilter.__init__, ClauseFilter.forget_half

    def counting_init(self):
        init(self)
        made.append(self)

    def counting_forget(self, rng):
        calls[self] += 1
        forget(self, rng)
    monkeypatch.setattr(ClauseFilter, "__init__", counting_init)
    monkeypatch.setattr(ClauseFilter, "forget_half", counting_forget)
    cfg = small_cfg(num_pes=4, threads=2, share_period_s=0.02,
                    filter_halflife_s=0.01, cdcl_rate=1.0)
    report = mono_mode(php_cnf(5), cfg)
    assert report.jobs[1]["verdict"] == "UNSAT"
    assert any(" SHARE " in l for l in report.trace)
    assert made and all(calls[f] >= 1 for f in made)
    assert mono_mode(php_cnf(5), cfg).trace == report.trace


# ---------------------------------------------------------------------------
# scheduling runs


def synth_job(job, dur, demand, pri=0.5, arrival=0.0):
    return JobDescriptor(job=job, priority=pri, arrival_s=arrival,
                         demand=demand, synthetic_s=dur)


def test_budget_respected_and_volumes_agree(monkeypatch):
    records = []
    orig = pe_mod.BasePE._apply_broadcast

    def spy(self, k, events):
        orig(self, k, events)
        records.append((k, self.pe_id, dict(self.volumes)))

    monkeypatch.setattr(pe_mod.BasePE, "_apply_broadcast", spy)

    cfg = small_cfg(num_pes=8, epsilon=0.0, seed=2, timeout_s=20.0)
    jobs = [synth_job(1, 1.2, 4, pri=0.7),
            synth_job(2, 1.0, 4, pri=0.4, arrival=0.3),
            synth_job(3, 0.8, 4, pri=0.5, arrival=0.6)]
    report = Cluster(cfg, jobs).run()

    assert report.aggregates["solved"] == 3
    assert all(b <= cfg.budget for _t, b, _a in report.aggregates["busy"])

    by_epoch = {}
    for k, _pe, vols in records:
        by_epoch.setdefault(k, []).append(vols)
    fanned_out = [group for group in by_epoch.values() if len(group) >= 4]
    assert fanned_out, "no epoch reached several PEs"
    for group in fanned_out:
        assert all(g == group[0] for g in group)


def _random_synth_jobs():
    srng = Random(55)
    return [synth_job(j, srng.uniform(0.5, 1.5), srng.choice([2, 4, 8]),
                      pri=srng.choice([0.3, 0.5, 0.8]), arrival=srng.uniform(0.0, 1.0))
            for j in range(1, 9)]


def test_volume_maps_are_computed_only_where_read(monkeypatch):
    """Every PE applies every broadcast, but a volume map is computed only
    on a read: the client never reads one, a worker reads one only while it
    holds a root node, and while all tables agree the run computes at most
    one map per epoch, which every reader of that epoch shares.  Every map
    read is the one a fresh computation over that PE's own job table gives,
    and it is read-only."""
    real = pe_mod.compute_volumes
    applying = {}  # the broadcast being applied: its epoch and PE
    applied, computed, reads = Counter(), Counter(), []
    tables = {}  # epoch -> the job-table entries of its first reader

    def counting(jobs, budget):
        assert applying, "a map was computed outside a broadcast"
        k, pe = applying["k"], applying["pe"]
        computed[k] += 1
        assert any(x == 0 for _job, x in getattr(pe, "nodes", ())), \
            f"pe {pe.pe_id} holds no root node in epoch {k}"
        return real(jobs, budget)

    orig_apply = pe_mod.BasePE._apply_broadcast

    def apply(self, k, events):
        applied[self.pe_id] += 1
        applying.update(k=k, pe=self)
        orig_apply(self, k, events)
        applying.clear()

    lazy = pe_mod.BasePE.volumes.fget

    def read(self):
        vm = lazy(self)
        k = applying.get("k")
        entries = tuple(self.jobs_table.values())
        assert tables.setdefault(k, entries) == entries, f"tables diverged in epoch {k}"
        fresh = real(self.jobs_table.values(), self.shared.cfg.budget)
        try:
            vm[-1] = 0
            writable = True
        except TypeError:
            writable = False
        reads.append((self.pe_id, k, vm == fresh, writable))
        return vm

    monkeypatch.setattr(pe_mod, "compute_volumes", counting)
    monkeypatch.setattr(pe_mod.BasePE, "_apply_broadcast", apply)
    monkeypatch.setattr(pe_mod.BasePE, "volumes", property(read))
    report = Cluster(small_cfg(num_pes=16, seed=3), _random_synth_jobs(),
                     demand_changes=[(0.6, 2, 1), (0.9, 2, 6)]).run()

    assert reads and not any(w for *_rest, w in reads), "a map read was writable"
    stale = [(pe, k) for pe, k, fresh, _w in reads if not fresh]
    assert not stale, f"stale maps read (pe, epoch): {stale[:5]}"
    assert applied[pe_mod.CLIENT_ID] > 0 and len(applied) == 16
    assert max(computed.values()) == 1, "a map computed twice in one epoch"
    # Several PEs read in most epochs, and all of them share one map.
    readers = Counter(k for _pe, k, _f, _w in reads)
    assert sum(computed.values()) < len(reads) / 2 and max(readers.values()) >= 4
    assert report.aggregates["solved"] == 8


def test_volume_map_is_shared_only_between_equal_tables(monkeypatch):
    """The run's shared volume map is keyed by the whole job table, not by
    the epoch: in one epoch one worker's table gets a job whose demand
    differs from its peers' tables.  That worker computes the map of its own
    table, which differs from the map its peers share, and every PE still
    reads the map of its own table."""
    real = pe_mod.compute_volumes
    budget = small_cfg(num_pes=16).budget
    current = {}   # the epoch whose broadcast a worker is applying
    skewed = {}    # the one (epoch, PE) whose table was changed
    reads = []     # (epoch, PE, map read, fresh map of that PE's table)
    readers = Counter()

    def skew(table):
        """The table with one job's demand changed so that its map changes."""
        want = real(table.values(), budget)
        for job, info in table.items():
            for demand in (1, 2 * info.demand + 8):
                changed = {**table, job: replace(info, demand=demand)}
                if real(changed.values(), budget) != want:
                    return changed
        return None

    orig_after = pe_mod.WorkerPE._after_volumes

    def after(self, k, events):
        current["k"] = k
        table = self.jobs_table
        holds_root = any(x == 0 and job in table for job, x in self.nodes)
        if not skewed and holds_root and readers[k] >= 2:
            changed = skew(table)
            if changed is not None:
                skewed.update(k=k, pe=self.pe_id)
                self.jobs_table = changed
        orig_after(self, k, events)
        self.jobs_table = table
        current.clear()

    lazy = pe_mod.BasePE.volumes.fget

    def read(self):
        vm = lazy(self)
        k = current["k"]
        readers[k] += 1
        reads.append((k, self.pe_id, dict(vm), real(self.jobs_table.values(), budget)))
        return vm

    monkeypatch.setattr(pe_mod.WorkerPE, "_after_volumes", after)
    monkeypatch.setattr(pe_mod.BasePE, "volumes", property(read))
    report = Cluster(small_cfg(num_pes=16, seed=3), _random_synth_jobs(),
                     demand_changes=[(0.6, 2, 1), (0.9, 2, 6)]).run()

    assert skewed, "no epoch had a root holder after two readers"
    assert all(vm == fresh for _k, _pe, vm, fresh in reads), "a map of another table was read"
    in_epoch = [(pe, vm) for k, pe, vm, _f in reads if k == skewed["k"]]
    own = [vm for pe, vm in in_epoch if pe == skewed["pe"]]
    peers = [vm for pe, vm in in_epoch if pe != skewed["pe"]]
    assert own and len(peers) >= 2
    assert all(vm != own[0] for vm in peers)
    assert all(vm == peers[0] for vm in peers)
    assert report.aggregates["solved"] == 8


def test_job_table_is_shared_only_between_equal_tables(monkeypatch):
    """The run applies each balancing broadcast once while the PEs' job
    tables agree, and every PE holds the very table that application gave,
    read-only.  In one epoch one worker's table gets a job its peers' tables
    lack: that worker applies the broadcast to its own table, whose result
    differs from the table its peers share.  Its table is then put back to a
    copy of its peers', equal to theirs but not the same object, and the
    next epochs apply each broadcast once again."""
    real = pe_mod.apply_events
    current = {}   # the broadcast being applied: its epoch and input table
    calls = []     # (epoch, input table) of every application
    broadcasts = {}   # epoch -> its events
    held = []      # (epoch, PE, previous table, table after the broadcast)
    skewed = {}    # the one (epoch, PE, table) whose input was changed

    def counting(table, events):
        assert current, "a table was built outside a broadcast"
        calls.append((current["k"], table))
        return real(table, events)

    orig_apply = pe_mod.BasePE._apply_broadcast

    def apply(self, k, events):
        assert broadcasts.setdefault(k, events) is events, f"epoch {k} has two broadcasts"
        prev = self.jobs_table
        if not skewed and self.pe_id != pe_mod.CLIENT_ID and prev and len(broadcasts) >= 4:
            info = next(iter(prev.values()))
            skewed.update(k=k, pe=self.pe_id, peers=prev)
            prev = self.jobs_table = skewed["table"] = {**prev, 999: replace(info, job=999)}
        current.update(k=k, prev=prev)
        orig_apply(self, k, events)
        current.clear()

    def hooked(orig_after):
        def after(self, k, events):
            held.append((k, self.pe_id, current["prev"], self.jobs_table))
            if skewed.get("pe") == self.pe_id and skewed["k"] == k:
                # back to its peers' table, by value, before the run reads it
                self.jobs_table = MappingProxyType(real(skewed["peers"], events))
            orig_after(self, k, events)
        return after

    monkeypatch.setattr(pe_mod, "apply_events", counting)
    monkeypatch.setattr(pe_mod.BasePE, "_apply_broadcast", apply)
    for cls in (pe_mod.BasePE, pe_mod.WorkerPE):
        monkeypatch.setattr(cls, "_after_volumes", hooked(cls.__dict__["_after_volumes"]))
    report = Cluster(small_cfg(num_pes=16, seed=3), _random_synth_jobs(),
                     demand_changes=[(0.6, 2, 1), (0.9, 2, 6)]).run()

    assert skewed, "no worker held a table after three broadcasts"
    assert max(broadcasts) > skewed["k"], "no broadcast followed the skewed one"
    for k, pe, prev, table in held:
        assert table == real(prev, broadcasts[k]), f"pe {pe} holds a stale table in epoch {k}"
        with pytest.raises(TypeError):
            table[-1] = None
    per_epoch = Counter(k for k, _t in calls)
    assert set(per_epoch) == {k for k, events in broadcasts.items() if events}
    assert all(n == 1 for k, n in per_epoch.items() if k != skewed["k"]), per_epoch
    for k in broadcasts:
        tables = [table for kk, _pe, _p, table in held if kk == k]
        assert len(tables) >= 2
        if k != skewed["k"]:
            assert all(table is tables[0] for table in tables), f"epoch {k} built two tables"
    in_epoch = [(pe, table) for k, pe, _p, table in held if k == skewed["k"]]
    own = [table for pe, table in in_epoch if pe == skewed["pe"]]
    peers = [table for pe, table in in_epoch if pe != skewed["pe"]]
    assert sum(table is skewed["table"] for _k, table in calls) == 1
    assert len(own) == 1 and 999 in own[0] and len(peers) == 15
    assert all(table == peers[0] != own[0] for table in peers)
    assert report.aggregates["solved"] == 8


def test_broadcast_is_decoded_once_per_buffer(monkeypatch):
    """Every node of a job tree imports the one buffer object that its root
    broadcast, and the run decodes each such buffer once: the slots of the
    tree's nodes, on different PEs, queue the very same clause tuples, held
    in a tuple that no PE can change, and each ring's fill grows by a
    length word plus the literals of each clause it took."""
    real = pe_mod.deserialize
    decoded = []
    imports = []   # (buffer, PE, node key, the decoded clauses)

    def counting(buf):
        decoded.append(buf)
        return real(buf)

    orig_import = pe_mod.WorkerPE._apply_import

    def apply_import(self, node, buf):
        rings = [slot.ring for slot in node.slots or () if slot.ring is not None]
        before = [(len(ring._records), len(ring)) for ring in rings]
        orig_import(self, node, buf)
        if not buf or not rings:
            return
        _buf, clauses, _words = self.shared.decode_memo
        assert _buf is buf and type(clauses) is tuple
        for ring, (n, words) in zip(rings, before):
            taken = list(ring._records)[n:]
            assert len(taken) == len(clauses)  # no workload here fills a ring
            assert all(map(operator.is_, taken, clauses))
            assert len(ring) - words == sum(len(keys) + 1 for keys in taken)
        imports.append((buf, self.pe_id, node.key, clauses))

    monkeypatch.setattr(pe_mod, "deserialize", counting)
    monkeypatch.setattr(pe_mod.WorkerPE, "_apply_import", apply_import)
    multi_cnf_sharing_run()

    by_buf: dict[int, list] = {}
    for entry in imports:  # every buffer stays alive in imports, so ids are unique
        by_buf.setdefault(id(entry[0]), []).append(entry)
    assert len(decoded) == len(by_buf) >= 2
    assert all(any(d is group[0][0] for d in decoded) for group in by_buf.values())
    for group in by_buf.values():
        assert all(clauses is group[0][3] for _b, _pe, _key, clauses in group)
        assert len({pe for _b, pe, _key, _c in group}) >= 2  # a tree over several PEs


def test_balancing_round_sends_each_contribution_once(monkeypatch):
    """Jobs arrive, ramp up and finish at p=16.  Each worker sends one
    EVENT_REDUCE per epoch it completes, in epoch order; only epochs with
    events are broadcast; and at the end no PE holds a fold for an epoch
    older than the last one its own timer opened."""
    sent, opened = [], {}
    orig_send, orig_timer = pe_mod.BasePE.send, pe_mod.BasePE.on_timer

    def send(self, dst, kind, job, payload, extra_delay_us=0):
        if kind in (tp.EVENT_REDUCE, tp.EVENT_BROADCAST):
            sent.append((kind, self.pe_id, dst, payload["epoch"], bool(payload["events"])))
        orig_send(self, dst, kind, job, payload, extra_delay_us)

    def on_timer(self, tag, data):
        if tag == "balance":
            opened[self.pe_id] = data
        orig_timer(self, tag, data)

    monkeypatch.setattr(pe_mod.BasePE, "send", send)
    monkeypatch.setattr(pe_mod.BasePE, "on_timer", on_timer)
    cfg = small_cfg(num_pes=16, seed=7, balance_period_s=0.05)
    jobs = [JobDescriptor(job=j, priority=0.5, arrival_s=0.2 * j, synthetic_s=0.6)
            for j in range(1, 6)]  # no demand: each root ramps up
    cluster = Cluster(cfg, jobs, demand_changes=[(0.5, 1, 6)])
    report = cluster.run()
    assert report.aggregates["solved"] == 5
    assert max(v["max_volume"] for v in report.jobs.values()) >= 4

    reduces = [(src, k) for kind, src, _dst, k, _ in sent if kind == tp.EVENT_REDUCE]
    assert len(reduces) == len(set(reduces))
    for pe in cluster.workers:
        epochs = [k for src, k in reduces if src == pe]
        assert epochs == list(range(1, len(epochs) + 1))
        assert len(epochs) >= opened[pe] - 1
    broadcasts = [(src, dst, k) for kind, src, dst, k, has in sent
                  if kind == tp.EVENT_BROADCAST and has]
    assert len(broadcasts) == len([s for s in sent if s[0] == tp.EVENT_BROADCAST])
    assert len(broadcasts) == len(set(broadcasts))
    client_epochs = {k for src, _dst, k in broadcasts if src == pe_mod.CLIENT_ID}
    assert 0 < len(client_epochs) < opened[pe_mod.CLIENT_ID] - 1  # some epochs had no events
    for pe_id, pe in cluster.pes.items():
        assert all(k >= opened[pe_id] for k in pe.red), (pe_id, list(pe.red))


def test_demand_changes_shrink_and_regrow():
    cfg = small_cfg(num_pes=8, epsilon=0.0, seed=4, timeout_s=20.0)
    jobs = [synth_job(1, 2.5, 5)]
    report = Cluster(cfg, jobs,
                     demand_changes=[(0.8, 1, 1), (1.4, 1, 5)]).run()
    assert report.jobs[1]["verdict"] == "DONE"
    suspends = [l for l in report.trace if " SUSPEND 1 " in l]
    resumes = [l for l in report.trace if " START 1 " in l and "mode=resume" in l]
    assert len(suspends) >= 3
    assert len(resumes) >= 3
    assert report.jobs[1]["max_volume"] == 5


def test_demand_lines_before_placement_apply_once_the_root_is_placed():
    """The client holds the latest demand line that fires before the job's
    root is placed and sends it after the root's payload."""
    cfg = ClusterConfig(num_pes=9, seed=3)  # budget 7, which a ramp would reach
    report = Cluster(cfg, [synth_job(1, 1.0, None, arrival=0.5)],
                     demand_changes=[(0.1, 1, 5), (0.2, 1, 2)]).run()
    assert "200.000 0 DEMAND 1 demand=2 root=None" in report.trace
    assert report.jobs[1]["verdict"] == "DONE"
    assert report.jobs[1]["max_volume"] == 2


def deferral_cluster():
    """Job 1's demand shrinks and regrows, suspending and resuming its two
    children; then three higher-priority jobs defer its root, which keeps
    its seat while suspended."""
    descs = [JobDescriptor(job=1, priority=0.3, demand=3, cnf=php_cnf(7))]
    descs += [JobDescriptor(job=j, priority=0.7, arrival_s=0.5, demand=1,
                            synthetic_s=0.3) for j in (2, 3, 4)]
    cfg = ClusterConfig(num_pes=8, threads=2, epsilon=0.5, seed=5,
                        balance_period_s=0.05, timeout_s=1.2, cdcl_rate=1.0)
    return Cluster(cfg, descs, demand_changes=[(0.2, 1, 1), (0.35, 1, 3)])


def deferral_run():
    return deferral_cluster().run()


def test_solvers_step_only_while_their_node_is_active(monkeypatch):
    """In the deferral scenario no solver steps while its node is not ACTIVE,
    and every slot of a resumed node steps again before the node next
    suspends or ends."""
    cluster = deferral_cluster()
    events = []  # (kind, pe, node key, slot index or detail), in run order

    def spy_step(cls):
        orig = cls.step

        def step(self, n):
            [(pe, node, slot)] = [(w.pe_id, node, slot) for w in cluster.workers.values()
                                  for node in w.nodes.values()
                                  for slot in node.slots or () if slot.solver is self]
            events.append(("step", pe, node.key, slot.index, node.state))
            return orig(self, n)
        monkeypatch.setattr(cls, "step", step)
    spy_step(CdclSolver)
    spy_step(SlsSolver)
    orig_log = pe_mod.BasePE.log

    def log(self, kind, job, detail="", at_us=None):
        if kind in ("START", "SUSPEND", "END"):
            key = (job, int(detail.split()[0].removeprefix("x=")))
            node = self.nodes.get(key)
            live = {s.index for s in node.slots or () if not s.done} if node else set()
            events.append((kind, self.pe_id, key, detail, live))
        orig_log(self, kind, job, detail, at_us)
    monkeypatch.setattr(pe_mod.BasePE, "log", log)

    report = cluster.run()
    assert report.jobs[1]["verdict"] == "UNKNOWN"  # php(7) outlasts the run
    steps = [e for e in events if e[0] == "step"]
    assert steps and [e for e in steps if e[4] != pe_mod.ACTIVE] == []
    resumes = [i for i, e in enumerate(events)
               if e[0] == "START" and "mode=resume" in e[3]]
    assert {events[i][2] for i in resumes} == {(1, 0), (1, 1), (1, 2)}
    assert any(e[0] == "SUSPEND" and e[2] == (1, 0) for e in events)  # root deferred
    for i in resumes:
        _kind, pe, key, _detail, live = events[i]
        stepped = set()
        for e in events[i + 1:]:
            if e[1:3] == (pe, key):
                if e[0] != "step":
                    break
                stepped.add(e[3])
        assert live and stepped == live, f"{key} on PE {pe} resumed at event {i}"


def test_max_jobs_limits_admission():
    cfg = small_cfg(num_pes=6, seed=1, timeout_s=30.0, max_jobs=1)
    jobs = [synth_job(1, 0.5, 2), synth_job(2, 0.5, 2), synth_job(3, 0.5, 2)]
    report = Cluster(cfg, jobs).run()
    assert report.aggregates["solved"] == 3
    assert all(a <= 1 for _t, _b, a in report.aggregates["busy"])


def test_timeout_reports_unsolved():
    cfg = small_cfg(num_pes=4, timeout_s=0.4)
    report = Cluster(cfg, [synth_job(1, 50.0, 2)]).run()
    assert report.aggregates["end_reason"] == "timeout"
    assert report.aggregates["unsolved"] == 1
    assert report.aggregates["makespan_ms"] == pytest.approx(400.0)
    assert report.jobs[1]["verdict"] == "UNKNOWN"
    assert report.jobs[1]["response_ms"] == pytest.approx(400.0)


def test_real_mode_timeout_done_stamped_at_run_end():
    cfg = small_cfg(num_pes=3, seed=3, sim=False, timeout_s=0.3)
    report = Cluster(cfg, [synth_job(1, 50.0, 2)]).run()
    assert report.jobs[1]["verdict"] == "UNKNOWN"
    times = {kind: t for t, _pe, kind, _job, _detail
             in map(parse_trace_line, report.trace) if kind in ("DONE", "RUN_END")}
    assert times["DONE"] == times["RUN_END"]
    assert report.jobs[1]["response_ms"] == pytest.approx(times["RUN_END"])


def test_deadline_abort_frees_the_jobs_volume():
    cfg = small_cfg(num_pes=9, seed=5)
    jobs = [JobDescriptor(job=1, priority=0.5, synthetic_s=5.0, wallclock_limit_s=0.5),
            JobDescriptor(job=2, priority=0.5, arrival_s=1.0, synthetic_s=1.0)]
    cluster = Cluster(cfg, jobs)
    report = cluster.run()
    assert report.jobs[1]["verdict"] == "UNKNOWN"
    assert any(" DONE 1 " in l and "reason=deadline" in l for l in report.trace)
    assert report.jobs[2]["verdict"] == "DONE"
    for pe in cluster.workers.values():
        assert 1 not in pe.jobs_table, f"pe {pe.pe_id} still holds job 1"
    assert report.jobs[2]["max_volume"] == cfg.budget


@pytest.fixture
def collector_off():
    """Collect once, then keep the cyclic collector off for the test."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def test_torn_down_nodes_free_their_filters(monkeypatch, collector_off):
    refs = []

    def tracking(cls):
        orig_init = cls.__init__

        def tracking_init(self, *args, **kwargs):
            orig_init(self, *args, **kwargs)
            refs.append(weakref.ref(self))
        monkeypatch.setattr(cls, "__init__", tracking_init)
    tracking(ClauseFilter)
    tracking(CdclSolver)
    cfg = small_cfg(num_pes=6, threads=2, max_jobs=1)
    jobs = [JobDescriptor(job=j, priority=0.5, arrival_s=0.05 * j,
                          cnf=random_3cnf(Random(j), 40, 170)) for j in range(1, 5)]
    cluster = Cluster(cfg, jobs)
    report = cluster.run()
    assert report.aggregates["solved"] == 4
    # With the collector off, only reference counting can have freed them.
    held = {id(obj) for w in cluster.workers.values()
            for node in w.nodes.values() for slot in node.slots or ()
            for obj in (slot.filt, slot.solver) if obj is not None}
    alive = [o for o in (r() for r in refs) if o is not None]
    assert len(alive) < len(refs)
    assert all(id(o) in held for o in alive)


def test_runs_leave_no_cyclic_garbage(collector_off, monkeypatch):
    # Sharing, a shrink that suspends nodes, adoptions that evict them from
    # a one-node cache, and a timeout with live solvers.
    monkeypatch.setattr(pe_mod, "CACHE_SIZE", 1)
    cfg = small_cfg(num_pes=6, threads=2, share_period_s=0.05,
                    timeout_s=0.45, cdcl_rate=1.0, sls_rate=20.0)
    jobs = [JobDescriptor(job=1, priority=0.5, demand=5, cnf=php_cnf(6)),
            JobDescriptor(job=2, priority=0.5, arrival_s=0.3, demand=5,
                          cnf=random_3cnf(Random(2), 40, 170))]
    cluster = Cluster(cfg, jobs, demand_changes=[(0.2, 1, 1)])
    report = cluster.run()
    del cluster
    kinds = [(kind, detail) for _t, _pe, kind, _job, detail
             in map(parse_trace_line, report.trace)]
    assert any(k == "END" and "reason=evict" in d for k, d in kinds)
    assert any(k == "SUSPEND" for k, _d in kinds)
    assert any(k == "SHARE" for k, _d in kinds)
    assert report.aggregates["end_reason"] == "timeout"
    # Real mode steps the same solvers on the wall clock.
    report = mono_mode(random_3cnf(Random(11), 40, 160),
                       small_cfg(num_pes=3, threads=2, sim=False, timeout_s=60.0))
    assert report.jobs[1]["verdict"] in ("SAT", "UNSAT")
    assert gc.collect() == 0


def _slots_and_fresh_starts(report) -> tuple[int, int]:
    return report.solver_totals["slots"], report.aggregates["fresh_starts"]


def test_huge_formula_runs_one_solver_per_node(monkeypatch):
    # Every fresh start spawns its node's solvers; a formula larger than
    # HUGE_SIZE gets max(1, threads * HUGE_SIZE // size) of them.
    cnf = random_3cnf(Random(7), 80, 340)
    cfg = small_cfg(num_pes=6, threads=2, cdcl_rate=1.0, sls_rate=20.0)
    slots, fresh = _slots_and_fresh_starts(mono_mode(cnf, cfg))
    assert fresh >= 3 and slots == 2 * fresh
    monkeypatch.setattr(pe_mod, "HUGE_SIZE", cnf.serialized_size)
    slots, fresh = _slots_and_fresh_starts(mono_mode(cnf, cfg))
    assert fresh >= 3 and slots == 2 * fresh
    monkeypatch.setattr(pe_mod, "HUGE_SIZE", cnf.serialized_size - 1)
    slots, fresh = _slots_and_fresh_starts(mono_mode(cnf, cfg))
    assert fresh >= 3 and slots == fresh


def test_real_run_returns_with_solvers_mid_search():
    # A hard formula and a short timeout: the solvers are mid-search when
    # the run ends, and the run returns without stepping them again.
    start = time.monotonic()
    report = mono_mode(php_cnf(9), small_cfg(num_pes=3, threads=2, sim=False,
                                             timeout_s=0.5, balance_period_s=0.01))
    assert time.monotonic() - start < 2.0
    assert report.jobs[1]["verdict"] == "UNKNOWN"
    assert report.solver_totals["slots"] == 4


def test_real_run_starts_no_thread(monkeypatch):
    # Every PE, and every solver slot it hosts, runs on the caller's thread.
    started = []
    orig_start = threading.Thread.start

    def counting_start(self):
        started.append(self.name)
        orig_start(self)
    monkeypatch.setattr(threading.Thread, "start", counting_start)
    report = mono_mode(php_cnf(9), small_cfg(num_pes=4, threads=2, sim=False,
                                             timeout_s=0.3))
    slots, _fresh = _slots_and_fresh_starts(report)
    assert slots >= 2 and started == []


@pytest.mark.parametrize("seed", [1, 2])
def test_real_mode_starts_short_jobs_under_solver_load(seed):
    # A hard formula keeps every worker's solvers busy from t=0; short
    # jobs that arrive later must still start at once, so a due solver
    # step waits for queued messages and due timers.
    jobs = [JobDescriptor(job=1, priority=0.5, arrival_s=0.0, demand=None,
                          cnf=random_3cnf(Random(2), 300, 1278))]
    jobs += [synth_job(j, 0.05, 1, arrival=0.9 + 0.2 * (j - 2)) for j in range(2, 8)]
    cfg = ClusterConfig(num_pes=33, threads=2, sim=False, timeout_s=3.0, seed=seed)
    report = Cluster(cfg, jobs).run()
    short = {j: (report.jobs[j]["verdict"], report.jobs[j]["response_ms"])
             for j in range(2, 8)}
    assert all(v == "DONE" and ms < 1000.0 for v, ms in short.values()), short


def test_real_mode_grows_tree_promptly():
    # Malleability with low latency: on the wall clock every worker of a
    # mono run starts within a fraction of a second, and the run ends soon
    # after its timeout.
    cnf = random_3cnf(Random(15), 200, 900)
    cfg = ClusterConfig(num_pes=8, threads=2, sim=False, timeout_s=1.0,
                        balance_period_s=0.05)
    start = time.monotonic()
    report = mono_mode(cnf, cfg)
    elapsed = time.monotonic() - start
    starts = [(t, d) for t, _pe, kind, _job, d in map(parse_trace_line, report.trace)
              if kind == "START"]
    assert sorted(d for _t, d in starts) == [f"x={x} mode=fresh" for x in range(7)]
    assert max(t for t, _d in starts) < 500.0
    assert elapsed < 1.25


def eviction_run():
    """Three wide jobs on a one-node cache: adoptions must evict suspended nodes."""
    cfg = small_cfg(num_pes=8, epsilon=0.0, seed=5)
    jobs = [synth_job(j, 1.0, 6, arrival=0.2 * (j - 1)) for j in (1, 2, 3)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pe_mod, "CACHE_SIZE", 1)
        return Cluster(cfg, jobs, demand_changes=[(0.6, 2, 1)]).run()


def test_full_cache_evicts_suspended_nodes():
    report = eviction_run()
    evictions = [l for l in report.trace if " END " in l and "reason=evict" in l]
    assert len(evictions) >= 1
    assert all(report.jobs[j]["verdict"] == "DONE" for j in (1, 2, 3))


class _Outbox:
    """A lone PE's view of the world: a clock the test moves and the list of
    envelopes it sends; its timers and trace lines go nowhere."""

    def __init__(self, pe_id):
        self.pe_id, self.rng, self.now, self.sent = pe_id, Random(0), 0, []

    def now_us(self):
        return self.now

    def send(self, env, extra_delay_us=0):
        self.sent.append(env)

    def set_timer(self, delay_us, tag, data=None):
        pass

    def log(self, kind, job, detail="", at_us=None):
        pass


def test_released_child_is_the_first_hop_until_its_parent_goes():
    """Worker PE 1 hosts node x=1 of job 1 for a parent on PE 5; PE 7 hosts
    its child x=3.  Once released, child 3 is asked for at PE 7 first; an
    aborted or evicted parent takes that hint with it."""
    shared = Cluster(small_cfg(num_pes=8), [synth_job(1, 1.0, 4)]).shared
    ctx = _Outbox(1)
    w = pe_mod.WorkerPE(ctx, shared, neighbors=(2, 3, 4))

    def deliver(kind, src, job, **payload):
        ctx.now += 1000
        ctx.sent = []
        w.on_envelope(Envelope(kind, src, 1, job, payload))
        return [(e.kind, e.dst, e.payload) for e in ctx.sent]

    def requests(sent):
        return [(dst, p["req"]) for kind, dst, p in sent if kind == tp.JOB_REQUEST]

    def place(job, v):  # PE 5 asks PE 1 to host node x=1 of job at volume v
        deliver(tp.JOB_REQUEST, 5, job, req=JobRequest(job, 1, origin=5))
        return deliver(tp.JOB_PAYLOAD, 5, job, x=1, v=v,
                       desc=JobDescriptor(job=job, priority=0.5, synthetic_s=1.0))

    [(dst, req)] = requests(place(1, 4))  # child 3 is in the tree, child 4 is not
    assert req.x == 3 and dst in (2, 3, 4) and not req.hint_used
    deliver(tp.ADOPT_ACK, 7, 1, x=3, mode="fresh")
    assert deliver(tp.VOLUME_UPDATE, 5, 1, x=1, v=3) == [
        (tp.VOLUME_UPDATE, 7, {"x": 3, "v": 3})]  # shrunk: child 3 is released
    [(dst, req)] = requests(deliver(tp.VOLUME_UPDATE, 5, 1, x=1, v=4))  # regrown
    assert (dst, req.x, req.hint_used) == (7, 3, True)
    # A walk for child 3 that reaches the busy parent PE also tries PE 7 first.
    [(dst, req)] = requests(deliver(tp.JOB_REQUEST, 2, 1, req=JobRequest(1, 3, origin=1)))
    assert (dst, req.hint_used) == (7, True)

    # Aborted: the abort reaches the hinted PE, and a new parent has no hint.
    assert deliver(tp.ABORT, 5, 1, x=1) == [(tp.ABORT, 7, {"x": 3})]
    [(dst, req)] = requests(place(1, 4))
    assert dst in (2, 3, 4) and not req.hint_used

    # Evicted: suspend the parent with a hint, then fill the cache past it.
    deliver(tp.ADOPT_ACK, 7, 1, x=3, mode="fresh")
    deliver(tp.VOLUME_UPDATE, 5, 1, x=1, v=1)
    for job in range(2, pe_mod.CACHE_SIZE + 1):
        place(job, 1)  # each suspends at once: x=1 is not under volume 1
    assert [kind for kind, _dst, _p in deliver(
        tp.JOB_REQUEST, 5, 9, req=JobRequest(9, 1, origin=5))] == [tp.ADOPT_ACK]
    assert (1, 1) not in w.nodes and (9, 1) in w.nodes
    [(dst, req)] = requests(deliver(tp.JOB_REQUEST, 2, 1, req=JobRequest(1, 3, origin=1)))
    assert dst in (2, 3, 4) and not req.hint_used


def test_a_deferred_root_keeps_its_seat():
    """The lone worker of a budget-1 cluster hosts job 1's root; job 2 outranks
    and defers it.  The suspended root keeps the seat, so a request for job 2
    walks on, and the root resumes in place once job 2 is done."""
    shared = Cluster(small_cfg(num_pes=2), [synth_job(1, 1.0, 1)]).shared
    ctx = _Outbox(1)
    w = pe_mod.WorkerPE(ctx, shared, neighbors=(2, 3))

    def deliver(kind, job, **payload):
        ctx.sent = []
        w.on_envelope(Envelope(kind, 0, 1, job, payload))
        return [e.kind for e in ctx.sent]

    def broadcast(epoch, *events):
        deliver(tp.EVENT_BROADCAST, None, epoch=epoch, events={e.job: e for e in events})

    assert deliver(tp.JOB_REQUEST, 1, req=JobRequest(1, 0, origin=0)) == [tp.ADOPT_ACK]
    deliver(tp.JOB_PAYLOAD, 1, x=0, v=0,
            desc=JobDescriptor(job=1, priority=0.3, synthetic_s=1.0))
    root = w.nodes[(1, 0)]
    broadcast(1, JobInfo(1, 0.3, 0.0, 1))
    assert root.state == pe_mod.ACTIVE
    broadcast(2, JobInfo(2, 0.7, 0.0, 1))
    assert root.state == pe_mod.SUSPENDED
    assert deliver(tp.JOB_REQUEST, 2, req=JobRequest(2, 0, origin=0)) == [tp.JOB_REQUEST]
    assert list(w.nodes) == [(1, 0)]
    broadcast(3, JobInfo(2, 0.7, 0.0, 0, 1))
    assert root.state == pe_mod.ACTIVE


def test_equally_old_suspended_nodes_evict_the_lowest_job_first(monkeypatch):
    """Worker PE 1 holds three nodes that suspended at the same instant; an
    adoption into its full cache evicts the one of the lowest job id."""
    monkeypatch.setattr(pe_mod, "CACHE_SIZE", 3)
    shared = Cluster(small_cfg(num_pes=8), [synth_job(1, 1.0, 4)]).shared
    ctx = _Outbox(1)
    ctx.now = 1000
    w = pe_mod.WorkerPE(ctx, shared, neighbors=(2, 3, 4))

    def deliver(kind, job, **payload):
        w.on_envelope(Envelope(kind, 5, 1, job, payload))

    for job in (5, 2, 4):  # each suspends at once: x=1 is not under volume 1
        deliver(tp.JOB_REQUEST, job, req=JobRequest(job, 1, origin=5))
        deliver(tp.JOB_PAYLOAD, job, x=1, v=1,
                desc=JobDescriptor(job=job, priority=0.5, synthetic_s=1.0))
    assert sorted(w.nodes) == [(2, 1), (4, 1), (5, 1)]
    assert {n.last_active for n in w.nodes.values()} == {1000}
    deliver(tp.JOB_REQUEST, 9, req=JobRequest(9, 1, origin=5))
    assert sorted(w.nodes) == [(4, 1), (5, 1), (9, 1)]


def criterion9_run():
    """The scenario of acceptance criterion 9: CNF and synthetic jobs, shrink/regrow."""
    descs = [
        JobDescriptor(job=1, priority=0.7, demand=6,
                      cnf=random_3cnf(Random(301), 50, 210)),
        JobDescriptor(job=2, priority=0.4, arrival_s=0.15, demand=6,
                      cnf=random_3cnf(Random(302), 50, 230)),
        JobDescriptor(job=3, priority=0.5, arrival_s=0.1, demand=4,
                      synthetic_s=0.9),
    ]
    cfg = ClusterConfig(num_pes=8, threads=2, seed=3, balance_period_s=0.05,
                        share_period_s=0.1, timeout_s=30.0)
    return Cluster(cfg, descs, demand_changes=[(0.3, 1, 2), (0.5, 1, 6)]).run()


def sharing_mono_run():
    """Slow simulated solvers: three sharing epochs, then x=3 wins and x=1 forwards."""
    cfg = ClusterConfig(num_pes=8, threads=2, seed=1, share_period_s=0.05,
                        timeout_s=30.0, cdcl_rate=1.0, sls_rate=20.0)
    return mono_mode(random_3cnf(Random(11), 90, 405), cfg)


def multi_cnf_sharing_run():
    """Four CNF jobs, three at a time, with slow solvers: sharing epochs
    import clauses, job 1 shrinks to one node and regrows, job 4 waits."""
    descs = [JobDescriptor(job=j, priority=p, arrival_s=a, demand=4,
                           cnf=random_3cnf(Random(400 + j), 80, n))
             for j, p, a, n in ((1, 0.6, 0.0, 345), (2, 0.5, 0.05, 350),
                                (3, 0.4, 0.1, 352), (4, 0.7, 0.2, 340))]
    cfg = ClusterConfig(num_pes=10, threads=2, seed=8, balance_period_s=0.05,
                        share_period_s=0.05, timeout_s=30.0, cdcl_rate=1.5)
    return Cluster(cfg, descs, demand_changes=[(0.06, 1, 1), (0.12, 1, 4)],
                   max_jobs=3).run()


def forgetting_mono_run():
    """Slow simulated solvers whose filters forget every 10 ms: forget_half
    draws its unit coins in signed-literal order, and the trace shows it."""
    cfg = ClusterConfig(num_pes=8, threads=2, seed=1, share_period_s=0.02,
                        timeout_s=30.0, cdcl_rate=1.0, sls_rate=20.0,
                        filter_halflife_s=0.01)
    return mono_mode(random_3cnf(Random(3), 120, 515), cfg)


def wide_synth_run():
    """128 synthetic jobs on 128 PEs with tied priorities and two demand
    changes: many jobs per volume map, at p = 128."""
    return synth_cluster(128, 128).run()


@pytest.mark.parametrize("run,digest", [
    (criterion9_run, "5446e5324c99858afeb13ffbb2b7e9e85b07b72a47d7515801545e2b3b0b0d79"),
    (eviction_run, "2d16d8e2f5cecd485bd5b81755e3b3aadfc0028d1725f9da28c42947159fd7b1"),
    (sharing_mono_run, "a7a5e620e53ac1cf8d37f97acb0dcfdf7db4f7c2748378c5f4b355c640f9032a"),
    (multi_cnf_sharing_run, "652df45f24072bf67d8cde61840aae09058eb26167154db87910609d8b75dc28"),
    (forgetting_mono_run, "2b36d0973f160fdc359a574012af0ddf664b4df712de459026f867c7f00d977e"),
    (wide_synth_run, "73ab4849160d71cf982e5de04f60e9bf3def35496213e005aa4feeab82392c0a"),
], ids=["criterion9", "eviction", "sharing_mono", "multi_cnf_sharing", "forgetting_mono",
        "wide_synth"])
def test_trace_digests_pinned(run, digest):
    """Simulated traces are part of the contract: a refactor must keep them byte-exact.

    A digest changes only with a deliberate change of behaviour; re-pin it
    then and say why.
    """
    trace = run().trace
    assert hashlib.sha256("\n".join(trace).encode()).hexdigest() == digest


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("run,digests", [
    (criterion9_run, ("ce774eef2cc62fec3ae365ca5b03ea42c08a7723fe792891e4c2357603997959",
                      "96c93a3524d22ee072428867bb863bb16a5700536336b6ad20c01a93955007f4",
                      "264a4db89a704a8dd94e8808e6c851601ee1b718720c2f7317d984bbb7d6165e")),
    (eviction_run, ("a156a272b9eb403283df16b63352b74b1ea0900ef1822d1eccf190732be9dc15",
                    "377e4f745ccd76d09fabc08c03665f389795b179dd65cf09a5d4aca4475e0e4a",
                    "f7427d4835dbe5cc6d34f032221a46650097dd3efe9b0e95d7fd363966e6248c")),
    (sharing_mono_run, ("841573059d7438285e9fd1e379d1d030b1d5ac91079c980fbc6908d456b7c4f6",
                        "e3c2402b76857e03bcd784d3a38f194858d860f9efd3b928c07033a35a4dcf73",
                        "b5cf11247ab1862bc2672c8ed5d3b80effe445cbc39388afa1aa21c200d37ef0")),
    (multi_cnf_sharing_run, ("1c0612823e1127b57aca67f742d34f4f9a4ec1df3bd2afa3aabd0d1e879cf1aa",
                             "48d20582e74c013a200c5f6ca670c9177eae071e526b7f069591ece2811b2552",
                             "540e490357f767234e071a69ba2cf06cb9ab33244cb79acdcfb34c2aa80de170")),
], ids=["criterion9", "eviction", "sharing_mono", "multi_cnf_sharing"])
def test_busy_and_totals_folds_keep_the_tick_era_values(run, digests):
    """The folds of the pinned runs: the trace without its CONFIG lines (and
    without TICK and STATS lines, which no run writes any more), the busy
    series folded from the PEs' own lines, and the solver totals.

    These digests audited the re-pin that dropped the cluster's TICK and
    STATS lines until the exactly regular PE graph moved every trace; they
    now pin the folds of the runs that the trace digests pin.
    """
    report = run()
    rest = [line for line in report.trace
            if parse_trace_line(line)[2] not in ("TICK", "STATS", "CONFIG")]
    assert (_sha("\n".join(rest)), _sha(json.dumps(report.aggregates["busy"])),
            _sha(json.dumps(report.solver_totals, sort_keys=True))) == digests


@pytest.mark.parametrize("run", [
    criterion9_run, eviction_run, sharing_mono_run, multi_cnf_sharing_run,
], ids=["criterion9", "eviction", "sharing_mono", "multi_cnf_sharing"])
def test_one_owner_per_tree_node(run):
    """Read from the trace: a tree node computes on at most one PE at a time,
    every job ends with exactly one DONE, and no busy sample exceeds the budget."""
    report = run()
    lines = [parse_trace_line(line) for line in report.trace]
    config = next(d for _t, _pe, kind, _job, d in lines if kind == "CONFIG")
    budget = json.loads(config)["budget"]
    owner: dict[tuple[int, int], int] = {}
    done = Counter()
    for _t, pe, kind, job, detail in lines:
        if kind in ("START", "SUSPEND", "END"):
            key = (job, int(detail.split()[0].removeprefix("x=")))
            if kind == "START":
                assert owner.setdefault(key, pe) == pe, f"{key} active on two PEs"
            elif owner.get(key) == pe:
                del owner[key]
        elif kind == "DONE":
            done[job] += 1
    jobs = {job for _t, _pe, _kind, job, _d in lines if job is not None}
    assert done and done == Counter(dict.fromkeys(jobs, 1))
    assert report.aggregates["busy"]
    assert all(busy <= budget for _t, busy, _a in report.aggregates["busy"])


@pytest.mark.parametrize("run", [
    criterion9_run, eviction_run, sharing_mono_run, multi_cnf_sharing_run, deferral_run,
], ids=["criterion9", "eviction", "sharing_mono", "multi_cnf_sharing", "deferral"])
def test_one_seat_per_worker(run):
    """Read from the trace: a worker computes for at most one node.  A node
    takes its worker's seat on ADOPT or START, only while no other node
    holds it, and frees it on END or SUSPEND; only the holder suspends, and
    a suspended root (x=0) keeps the seat, so a deferred root resumes in
    place and the worker takes no other node meanwhile."""
    seat: dict[int, tuple[int, int]] = {}  # worker -> the node holding it
    for _t, pe, kind, job, detail in map(parse_trace_line, run().trace):
        if kind not in ("ADOPT", "START", "SUSPEND", "END"):
            continue
        key = (job, int(detail.split()[0].removeprefix("x=")))
        if kind in ("ADOPT", "START"):
            assert seat.setdefault(pe, key) == key, f"{key} seated beside {seat[pe]} on {pe}"
        elif kind == "SUSPEND":
            assert seat.get(pe) == key, f"{key} suspended without the seat of {pe}"
            if key[1] != 0:
                del seat[pe]
        elif seat.get(pe) == key:
            del seat[pe]


def test_cluster_reads_no_worker_and_posts_no_timer(monkeypatch):
    """Every timer belongs to a PE, and each worker that started a solver
    slot reports its own counters in one STATS line when the run stops."""
    owners = set()
    orig_post = SimLoop.post_timer

    def recording_post(self, pe, delay_us, tag, data):
        owners.add(pe)
        orig_post(self, pe, delay_us, tag, data)
    monkeypatch.setattr(SimLoop, "post_timer", recording_post)
    report = sharing_mono_run()
    assert min(owners) == 0
    stats = [(pe, d) for _t, pe, kind, _job, d in map(parse_trace_line, report.trace)
             if kind == "STATS"]
    assert [pe for pe, _d in stats] == list(range(1, 8))
    assert all(d.split()[0] == "slots=2" for _pe, d in stats)
    assert report.trace[-1].split()[1:3] == ["-1", "RUN_END"]


def test_priority_shapes_volumes():
    cfg = small_cfg(num_pes=10, epsilon=0.0, seed=6, timeout_s=20.0)
    jobs = [synth_job(1, 1.5, 8, pri=0.9),
            synth_job(2, 1.5, 8, pri=0.15)]
    report = Cluster(cfg, jobs).run()
    assert report.jobs[1]["max_volume"] > report.jobs[2]["max_volume"]


def test_real_mode_smoke():
    cnf = random_3cnf(Random(11), 40, 160)
    direct = cdcl_solve(cnf, seed=0)
    cfg = small_cfg(num_pes=3, threads=2, seed=3, sim=False, timeout_s=60.0)
    report = mono_mode(cnf, cfg)
    assert report.jobs[1]["verdict"] == direct.verdict
    if direct.verdict == "SAT":
        assert check_model(cnf, report.models[1])


# A contradiction that local search's preprocessing finds: the SLS slot is
# blocked.  The CDCL slots are stalled so that the job runs to its timeout.
BLOCKED_CNF = Cnf.from_clauses(2, [[1], [-1], [1, 2]])


def _count_sls_steps(monkeypatch) -> list:
    calls = []
    orig_step = SlsSolver.step

    def counting_step(self, n):
        calls.append(n)
        return orig_step(self, n)
    monkeypatch.setattr(SlsSolver, "step", counting_step)
    return calls


@pytest.mark.parametrize("sim", [True, False], ids=["sim", "real"])
def test_never_steps_blocked_sls(monkeypatch, sim):
    calls = _count_sls_steps(monkeypatch)
    cdcl_steps = []
    monkeypatch.setattr(CdclSolver, "step", lambda self, n: cdcl_steps.append(n))
    cfg = small_cfg(num_pes=2, threads=14, sim=sim, timeout_s=0.3)  # slot 13 of each node is SLS
    report = mono_mode(BLOCKED_CNF, cfg)
    assert report.jobs[1]["verdict"] == "UNKNOWN"
    assert report.aggregates["end_reason"] == "timeout"
    assert calls == [] and cdcl_steps  # the CDCL slots stepped until the timeout


# ---------------------------------------------------------------------------
# event dispatch


@pytest.mark.parametrize("cls", [pe_mod.ClientPE, pe_mod.WorkerPE])
def test_dispatch_reaches_every_handler_and_ignores_unknown(cls):
    names = sorted(n for n in dir(cls) if n.startswith(("_h_", "_t_")))
    kinds = {v for k, v in vars(tp).items() if k.isupper() and isinstance(v, str)}
    tables = (*cls._handlers.values(), *cls._timers.values())
    assert sorted(f.__name__ for f in tables) == names
    calls = []
    spy = type("Spy", (cls,), {
        n: (lambda self, arg, n=n: calls.append((n, arg))) for n in names})
    pe = object.__new__(spy)  # dispatch reads only the class tables
    for n in names:
        if n.startswith("_h_"):
            kind = n[3:].upper()
            assert kind in kinds, n
            env = Envelope(kind, 1, 2, None, {})
            pe.on_envelope(env)
            assert calls[-1] == (n, env)
        else:
            pe.on_timer(n[3:], n)
            assert calls[-1] == (n, n)
    assert len(calls) == len(names) and any(n.startswith("_t_") for n in names)
    pe.on_envelope(Envelope("NO_SUCH_KIND", 1, 2, None, {}))
    pe.on_timer("no_such_tag", None)
    assert len(calls) == len(names)

"""Cluster runtime: transports, mono runs, malleability, determinism."""
import gc
import hashlib
import threading
import time
import weakref
from random import Random

import pytest

from flexsat.exchange import ClauseFilter
from flexsat.formula import Cnf, check_model
from flexsat.harness.report import parse_trace_line
from flexsat.runtime import Cluster, ClusterConfig, Envelope, mono_mode
from flexsat.runtime import pe as pe_mod
from flexsat.runtime import transport as tp
from flexsat.runtime.transport import SimLoop, Trace, format_time_ms
from flexsat.sched import JobDescriptor
from flexsat.solver import CdclSolver, SlsSolver, cdcl_solve
from helpers import php_cnf, random_3cnf


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
    with pytest.raises(ValueError, match="worker"):
        ClusterConfig(num_pes=1).validate()
    with pytest.raises(ValueError, match="budget"):
        ClusterConfig(num_pes=2, epsilon=0.9).validate()
    with pytest.raises(ValueError, match="ramp"):
        ClusterConfig(ramp="never").validate()
    with pytest.raises(ValueError, match="alpha"):
        ClusterConfig(alpha=0.3).validate()
    with pytest.raises(ValueError, match="timeout"):
        ClusterConfig(timeout_s=0).validate()
    with pytest.raises(ValueError, match="cache_size must be >= 1"):
        ClusterConfig(cache_size=0).validate()
    with pytest.raises(ValueError, match="ring_capacity"):
        ClusterConfig(ring_capacity=3).validate()
    with pytest.raises(ValueError, match="huge_size"):
        ClusterConfig(huge_size=0).validate()
    with pytest.raises(ValueError, match="latency_us"):
        ClusterConfig(latency_us=-500).validate()
    with pytest.raises(ValueError, match="jitter_us"):
        ClusterConfig(jitter_us=-10).validate()
    with pytest.raises(ValueError, match="sink_cap"):
        ClusterConfig(sink_cap=-1).validate()
    with pytest.raises(ValueError, match="degree"):
        ClusterConfig(degree=0).validate()
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
    ClusterConfig(ring_capacity=4, huge_size=1, latency_us=0, jitter_us=0,
                  sink_cap=0, degree=1, max_jobs=1).validate()
    for off in (None, 0, 0.0):  # each means: never forget
        ClusterConfig(filter_halflife_s=off).validate()
    assert Cluster(ClusterConfig(num_pes=4), jobs,
                   max_jobs=1).cfg.max_jobs == 1


# ---------------------------------------------------------------------------
# transport


def test_format_time_ms():
    assert format_time_ms(1234567) == "1234.567"
    assert format_time_ms(5) == "0.005"
    assert format_time_ms(0) == "0.000"


def test_trace_renders_jobless_lines():
    tr = Trace()
    tr.add(1500, -1, "TICK", None, "busy=3 active=2")
    tr.add(2000, 4, "START", 7, "x=0 mode=fresh")
    assert tr.lines() == ["1.500 -1 TICK - busy=3 active=2",
                          "2.000 4 START 7 x=0 mode=fresh"]


def _drain(loop):
    got = []
    loop.run(lambda pe, env: got.append((loop.now, env.src, env.payload["i"])),
             lambda pe, tag, data: None, lambda: False, 10 ** 9)
    return got


def test_simloop_per_pair_fifo_despite_jitter():
    loop = SimLoop(seed=3, latency_us=100, jitter_us=80)
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
        loop = SimLoop(seed=seed, latency_us=100, jitter_us=50)
        for i in range(40):
            loop.post_message(Envelope("K", 0, 1, None, {"i": i}))
        return _drain(loop)

    assert run(9) == run(9)
    assert run(9) != run(10)


def test_simloop_timer_order():
    loop = SimLoop(seed=0, latency_us=0, jitter_us=0)
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
        records.append((k, self.pe_id, dict(self.volumes.volumes)))

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


def test_runs_leave_no_cyclic_garbage(collector_off):
    # Sharing, a shrink that suspends nodes, adoptions that evict them from
    # a one-node cache, and a timeout with live solvers.
    cfg = small_cfg(num_pes=6, threads=2, cache_size=1, share_period_s=0.05,
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
    # Real mode: solver threads and PE threads, joined before collecting.
    before = set(threading.enumerate())
    report = mono_mode(random_3cnf(Random(11), 40, 160),
                       small_cfg(num_pes=3, threads=2, sim=False, timeout_s=60.0))
    assert report.jobs[1]["verdict"] in ("SAT", "UNSAT")
    for t in set(threading.enumerate()) - before:
        t.join(timeout=5.0)
    assert gc.collect() == 0


def test_real_run_returns_after_its_solver_threads_exit():
    # A hard formula and a short timeout: the solvers are mid-search when
    # the run ends, so they exit only because the run terminates them.  A
    # short tick keeps the sampler's join from giving them time to exit.
    before = set(threading.enumerate())
    report = mono_mode(php_cnf(9), small_cfg(num_pes=3, threads=2, sim=False,
                                             timeout_s=0.5, balance_period_s=0.01))
    assert report.jobs[1]["verdict"] == "UNKNOWN"
    stats = [d for _t, _pe, kind, _job, d in map(parse_trace_line, report.trace)
             if kind == "STATS"]
    assert stats and "slots=4" in stats[-1]
    assert [t for t in threading.enumerate() if t not in before] == []


def eviction_run():
    """Three wide jobs on a one-node cache: adoptions must evict suspended nodes."""
    cfg = small_cfg(num_pes=8, epsilon=0.0, seed=5, cache_size=1)
    jobs = [synth_job(j, 1.0, 6, arrival=0.2 * (j - 1)) for j in (1, 2, 3)]
    return Cluster(cfg, jobs, demand_changes=[(0.6, 2, 1)]).run()


def test_full_cache_evicts_suspended_nodes():
    report = eviction_run()
    evictions = [l for l in report.trace if " END " in l and "reason=evict" in l]
    assert len(evictions) >= 1
    assert all(report.jobs[j]["verdict"] == "DONE" for j in (1, 2, 3))


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


@pytest.mark.parametrize("run,digest", [
    (criterion9_run, "d744f22b08375ff7b1ce9f618af4ab8c3cce5cff70ea81d6d9276eb4b6894b12"),
    (eviction_run, "5e5717521ed47b1d8a28c51d436ea1cd3474b11a2187966ae86387f61bd2a1c6"),
    (sharing_mono_run, "db895bddba634d0dae04ffcaaf223ab5a244c5c0f18d680455acaf16198580fa"),
    (multi_cnf_sharing_run, "8c213aec78a634f30c8f0ae9b1b50dbde8e65e80de992addac6d27491bf41dec"),
], ids=["criterion9", "eviction", "sharing_mono", "multi_cnf_sharing"])
def test_trace_digests_pinned(run, digest):
    """Simulated traces are part of the contract: a refactor must keep them byte-exact.

    A digest changes only with a deliberate change of behaviour; re-pin it
    then and say why.
    """
    trace = run().trace
    assert hashlib.sha256("\n".join(trace).encode()).hexdigest() == digest


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


def test_sim_never_steps_blocked_sls(monkeypatch):
    calls = _count_sls_steps(monkeypatch)
    monkeypatch.setattr(CdclSolver, "step", lambda self, n: None)
    cfg = small_cfg(num_pes=2, threads=14, timeout_s=0.3)  # slot 13 of each node is SLS
    report = mono_mode(BLOCKED_CNF, cfg)
    assert report.jobs[1]["verdict"] == "UNKNOWN"
    assert report.aggregates["end_reason"] == "timeout"
    assert calls == []


def test_real_mode_blocked_sls_thread_exits_before_run_end(monkeypatch):
    calls = _count_sls_steps(monkeypatch)
    exits = {}
    orig_drive = pe_mod.drive

    def timed_drive(solver, *args, **kwargs):
        verdict = orig_drive(solver, *args, **kwargs)
        exits.setdefault(type(solver).__name__, (time.monotonic(), verdict))
        return verdict

    def stalled_step(self, n):
        time.sleep(0.002)
        return None
    monkeypatch.setattr(pe_mod, "drive", timed_drive)
    monkeypatch.setattr(CdclSolver, "step", stalled_step)
    cfg = small_cfg(num_pes=2, threads=14, sim=False, timeout_s=1.0)
    start = time.monotonic()
    report = mono_mode(BLOCKED_CNF, cfg)
    end = time.monotonic()
    assert report.jobs[1]["verdict"] == "UNKNOWN"
    sls_exit, sls_verdict = exits["SlsSolver"]
    assert sls_verdict is None and calls == []
    assert sls_exit - start < 0.5 and end - start >= 1.0
    assert sls_exit < exits["CdclSolver"][0]  # CDCL threads run until the timeout


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

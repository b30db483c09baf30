"""Acceptance gate: one test per shipping criterion, one verdict line each.

Every test prints a `[criterion NN] label: PASS/FAIL` line on the real
stdout (past pytest's capture) so a plain `pytest -v` run leaves a
readable scorecard.  Tolerances are pinned in the asserts, not in
comments; the oracles live in tests/helpers.py and are independent of
the production code paths they judge.
"""
from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import permutations
from random import Random

import pytest

from helpers import (crafted_corpus, key_order, limit_oracle, merge_oracle,
                     oracle_verdict, rand_keys, random_3cnf, volume_oracle,
                     water_shares)
from flexsat.exchange import (ClauseFilter, buffer_from_bytes, buffer_limit,
                              buffer_to_bytes, deserialize, merge, serialize)
from flexsat.formula import check_model
from flexsat.harness.metrics import hos_baseline, par2, speedups
from flexsat.runtime import Cluster, ClusterConfig, mono_mode
import flexsat.runtime.pe as pe_mod
from flexsat.sched import JobDescriptor, JobInfo, compute_volumes


@contextmanager
def criterion(capsys, num, label):
    info = {"detail": ""}
    try:
        yield info
    except BaseException:
        with capsys.disabled():
            print(f"\n[criterion {num:>2}] {label}: FAIL")
        raise
    with capsys.disabled():
        print(f"\n[criterion {num:>2}] {label}: PASS ({info['detail']})")


# ---------------------------------------------------------------------------
# 1. verdict agreement on a small exhaustively checkable corpus


def test_c01_small_corpus_verdicts(capsys):
    with criterion(capsys, 1, "small-corpus verdict agreement") as c:
        corpus = [(f"rand20-{i}", random_3cnf(Random(20_000 + i), 20, 91))
                  for i in range(40)]
        corpus.extend(crafted_corpus())
        assert len(corpus) == 60
        assert max(cnf.num_vars for _, cnf in corpus) <= 24

        t0 = time.monotonic()
        sat_models = 0
        for name, cnf in corpus:
            want = oracle_verdict(cnf)
            cfg = ClusterConfig(num_pes=4, threads=2, seed=1, timeout_s=60.0)
            rep = mono_mode(cnf, cfg)
            got = rep.jobs[1]["verdict"]
            assert got == want, f"{name}: cluster={got} oracle={want}"
            if got == "SAT":
                assert check_model(cnf, rep.models[1]), f"{name}: bad model"
                sat_models += 1
        elapsed = time.monotonic() - t0
        assert elapsed <= 120.0, f"corpus took {elapsed:.1f}s (limit 120s)"
        c["detail"] = (f"60/60 verdicts match, {sat_models} SAT models "
                       f"verified, {elapsed:.1f}s of 120s")


# ---------------------------------------------------------------------------
# 2. clause buffer codec and merge vs brute-force oracle


def test_c02_codec_and_merge_exact(capsys):
    with criterion(capsys, 2, "buffer codec and 3-way merge") as c:
        rng = Random(2001)
        for trial in range(10_000):
            cs = rand_keys(rng, rng.randrange(0, 25))
            buf = serialize(cs)
            back = deserialize(buf)
            assert back == sorted(set(cs), key=key_order), f"roundtrip trial {trial}"
            assert serialize(back) == buf, f"fixpoint trial {trial}"
            if trial % 10 == 0:
                assert buffer_from_bytes(buffer_to_bytes(buf)) == buf

        rng = Random(2002)
        for trial in range(1_000):
            cfg = ClusterConfig(alpha=rng.choice([0.5, 0.75, 0.875, 1.0]),
                                beta=rng.choice([20, 40, 80, 400]))
            buffers = [(serialize(rand_keys(rng, rng.randrange(0, 25))),
                        rng.randrange(1, 6)) for _ in range(2)]
            own = serialize(rand_keys(rng, rng.randrange(0, 25)))
            got = merge(buffers, own, cfg)
            assert got == merge_oracle(buffers, own, cfg), f"merge trial {trial}"
        c["detail"] = "10000 roundtrips exact, 1000 merges bit-equal to oracle"


# ---------------------------------------------------------------------------
# 3. communication volume limit closed forms


def test_c03_buffer_limit_exact(capsys):
    with criterion(capsys, 3, "buffer growth limit b(u)") as c:
        alphas = [Fraction(1, 2), Fraction(5, 8), Fraction(3, 4),
                  Fraction(7, 8), Fraction(1)]
        checked = 0
        for alpha in alphas:
            for beta in (100, 1500):
                cfg = ClusterConfig(alpha=float(alpha), beta=beta)
                for u in range(1, 4097):
                    got = buffer_limit(u, cfg)
                    assert got == limit_oracle(u, alpha, beta), (u, alpha, beta)
                    checked += 1
        # the two closed-form series the sweep must reproduce exactly
        for beta in (100, 1500):
            half = ClusterConfig(alpha=0.5, beta=beta)
            assert {buffer_limit(u, half) for u in range(1, 4097)} == {beta}
            lin = ClusterConfig(alpha=1.0, beta=beta)
            assert all(buffer_limit(u, lin) == u * beta for u in range(1, 4097))
        c["detail"] = (f"{checked} (u, alpha, beta) points match the "
                       "arbitrary-precision oracle; alpha=1/2 constant and "
                       "alpha=1 linear series exact")


# ---------------------------------------------------------------------------
# 4. duplicate filter exactness and probabilistic forgetting


def test_c04_filter_exact_and_forgetting(capsys):
    with criterion(capsys, 4, "duplicate filter and half-life") as c:
        filt = ClauseFilter()
        mirror: set[int] = set()
        rng = Random(404)
        for op in range(100_000):
            lit = rng.randint(1, 400) * rng.choice((1, -1))
            clause = (lit,)
            fresh = (filt.register_export(clause) if rng.getrandbits(1)
                     else filt.check_import(clause))
            assert fresh == (lit not in mirror), f"op {op} lit {lit}"
            mirror.add(lit)

        filt = ClauseFilter()
        for v in range(1, 5001):
            filt.register_export((v,))
            filt.register_export((-v,))
        assert len(filt.unit_set) == 10_000
        filt.forget_half(Random(99))
        kept = len(filt.unit_set)
        assert 4850 <= kept <= 5150, f"kept {kept} of 10000"  # 5000 +/- 3 sigma

        # a forgotten clause is admittable again: non-unit after two quiet
        # half-life steps, unit as soon as the coin drops it
        filt = ClauseFilter()
        two = (7, -9)
        assert filt.register_export(two)
        assert not filt.check_import(two)
        filt.forget_half(Random(1))
        filt.forget_half(Random(2))
        filt.forget_half(Random(3))  # the blocked check re-armed one generation
        assert filt.check_import(two)
        unit = (42,)
        assert filt.register_export(unit)
        for round_ in range(64):
            filt.forget_half(Random(round_))
            if 42 not in filt.unit_set:
                break
        assert 42 not in filt.unit_set
        assert filt.register_export(unit)
        c["detail"] = (f"100000 ops, zero disagreements with exact set; "
                       f"half-life kept {kept}/10000; forgotten clauses "
                       "re-admitted")


# ---------------------------------------------------------------------------
# 5. volume assignment invariants and cluster-wide agreement


def test_c05_volumes_and_cluster_agreement(capsys, monkeypatch):
    with criterion(capsys, 5, "fair volumes and identical maps") as c:
        rng = Random(0xACCE55)
        uncapped = 0
        for trial in range(1_000):
            n = rng.randint(1, 64)
            budget = rng.randint(1, 512)
            jobs = []
            for j in range(1, n + 1):
                pri = (rng.randrange(3, 62) / 64.0 if rng.random() < 0.8
                       else rng.uniform(0.05, 0.95))
                arrival = rng.choice([0.0, 0.5, 1.0, rng.random() * 9])
                jobs.append(JobInfo(j, pri, arrival, rng.randint(1, 16), 1))
            vm = compute_volumes(jobs, budget)
            assert vm == volume_oracle(jobs, budget), trial
            assert sum(vm.values()) <= budget
            shares = water_shares(jobs, budget)
            if shares is None:  # budget < n: exactly budget seats at one node
                assert sorted(vm.values(), reverse=True) == \
                    [1] * budget + [0] * (n - budget)
                continue
            for j in jobs:
                v = vm[j.job]
                assert 1 <= v <= j.demand, (trial, j.job)
                if shares[j.job] < j.demand:
                    assert abs(Fraction(v) - shares[j.job]) <= 1, (trial, j.job)
                    uncapped += 1

        records = []
        orig = pe_mod.BasePE._apply_broadcast

        def spy(self, k, events):
            orig(self, k, events)
            records.append((k, self.pe_id, dict(self.volumes)))

        monkeypatch.setattr(pe_mod.BasePE, "_apply_broadcast", spy)
        srng = Random(55)
        descs = [JobDescriptor(job=j, priority=srng.choice([0.3, 0.5, 0.8]),
                               arrival_s=srng.uniform(0.0, 1.0), demand=6,
                               synthetic_s=srng.uniform(1.0, 3.0))
                 for j in range(1, 7)]
        cfg = ClusterConfig(num_pes=16, threads=1, epsilon=0.0, seed=9,
                            balance_period_s=0.1, timeout_s=30.0)
        rep = Cluster(cfg, descs).run()
        assert rep.aggregates["solved"] == 6
        by_epoch: dict[int, list[dict]] = {}
        for k, _pe, vols in records:
            by_epoch.setdefault(k, []).append(vols)
        assert any(len(g) == 16 for g in by_epoch.values()), "no full fan-out"
        for k, group in by_epoch.items():
            assert all(g == group[0] for g in group), f"epoch {k} diverged"
        c["detail"] = (f"1000 job sets equal the water-fill oracle "
                       f"({uncapped} uncapped shares within 1); "
                       f"{len(by_epoch)} epochs identical on all 16 PEs")


# ---------------------------------------------------------------------------
# 6. utilization, latency, and over-transfer on a loaded cluster


def test_c06_busy_ratio_and_latency(capsys):
    with criterion(capsys, 6, "saturation, latency, over-transfer") as c:
        seed = 1
        rng = Random(seed * 97)
        jobs = [JobDescriptor(job=j, priority=rng.choice([0.25, 0.5, 0.9]),
                              synthetic_s=rng.uniform(2.5, 9.0),
                              arrival_s=rng.uniform(0.0, 3.0), demand=8)
                for j in range(1, 21)]
        cfg = ClusterConfig(num_pes=16, threads=1, epsilon=0.05, seed=seed,
                            max_jobs=4, timeout_s=300.0)
        assert cfg.budget == 14  # floor(0.95 * 15)
        rep = Cluster(cfg, jobs).run()
        assert rep.aggregates["end_reason"] == "all-done"
        assert rep.aggregates["solved"] == 20

        busy = rep.aggregates["busy"]
        assert all(b <= cfg.budget for _t, b, _a in busy), "budget exceeded"
        sat_start = next(t for t, b, _a in busy if b >= cfg.budget)
        window = [(t, b, a) for t, b, a in busy if t >= sat_start and a >= 2]
        assert window, "no loaded interval"
        frac = sum(1 for _t, b, _a in window if b >= cfg.budget) / len(window)
        assert frac >= 0.90, f"busy ratio {frac:.3f} < 0.90"

        lats = [j["latency_ms"] for j in rep.jobs.values()]
        assert all(l is not None for l in lats)
        lat_med = statistics.median(lats)
        lat_max = max(lats)
        assert lat_med <= 10.0, f"median latency {lat_med:.3f}ms"
        assert lat_max <= 1000.0, f"max latency {lat_max:.3f}ms"

        fresh = sum(j["fresh_starts"] for j in rep.jobs.values())
        peak = sum(j["max_volume"] for j in rep.jobs.values())
        f = fresh / peak
        assert f >= 1.0
        c["detail"] = (f"busy==budget on {frac:.1%} of loaded ticks, "
                       f"latency med {lat_med:.2f}ms max {lat_max:.2f}ms, "
                       f"f={f:.3f}")


# ---------------------------------------------------------------------------
# 7. mid-solve volume oscillation with suspend and resume


def test_c07_mid_solve_oscillation(capsys):
    with criterion(capsys, 7, "volume oscillation 8->3->8") as c:
        cnf = random_3cnf(Random(5), 150, 639)
        cfg = ClusterConfig(num_pes=10, threads=2, epsilon=0.0, seed=7,
                            balance_period_s=0.1, share_period_s=0.3,
                            cdcl_rate=0.05, sls_rate=1.0, timeout_s=60.0)
        job = JobDescriptor(job=1, priority=0.5, cnf=cnf, demand=8)
        rep = Cluster(cfg, [job],
                      demand_changes=[(0.25, 1, 3), (0.45, 1, 8)]).run()
        jr = rep.jobs[1]
        assert jr["verdict"] == "SAT"
        assert check_model(cnf, rep.models[1])

        vols = [int(l.split("v=")[1].split()[0])
                for l in rep.trace if " VOLUME 1 " in l]
        assert vols == [8, 3, 8], f"volume trajectory {vols}"
        suspends = sum(1 for l in rep.trace if " SUSPEND 1 " in l)
        resumes = sum(1 for l in rep.trace
                      if " START 1 " in l and "mode=resume" in l)
        assert suspends == 5 and resumes == 5, (suspends, resumes)
        f = jr["fresh_starts"] / jr["max_volume"]
        assert jr["fresh_starts"] == jr["max_volume"] == 8
        assert f < 1 + 2  # strictly under one fresh wave per volume change
        c["detail"] = (f"SAT with verified model after shrink+regrow; "
                       f"{suspends} suspends all resumed, f={f:.2f}")


# ---------------------------------------------------------------------------
# 8. clause sharing pays for itself (soft check)


def test_c08_sharing_beats_no_sharing(capsys):
    with criterion(capsys, 8, "sharing speedup on medium corpus") as c:
        wins = 0
        gains = []
        for idx in range(10):
            cnf = random_3cnf(Random(1000 + idx), 90, 414)
            meds = {}
            verdicts = set()
            for sharing in (True, False):
                times = []
                for seed in (1, 2, 3, 4, 5):
                    cfg = ClusterConfig(num_pes=8, threads=2, seed=seed,
                                        sharing=sharing, timeout_s=120.0,
                                        share_period_s=0.02,
                                        balance_period_s=0.02, cdcl_rate=1.0)
                    rep = mono_mode(cnf, cfg)
                    jr = rep.jobs[1]
                    verdicts.add(jr["verdict"])
                    times.append(jr["response_ms"])
                meds[sharing] = statistics.median(times)
            assert verdicts in ({"SAT"}, {"UNSAT"}), f"inst {idx}: {verdicts}"
            gains.append(1.0 - meds[True] / meds[False])
            if meds[True] <= 0.9 * meds[False]:
                wins += 1
        assert wins >= 5, f"sharing won on {wins}/10 instances"
        c["detail"] = (f"sharing >=10% faster on {wins}/10 instances "
                       f"(median gain {statistics.median(gains):+.1%})")


# ---------------------------------------------------------------------------
# 9. bit-identical repeatability of simulated runs


def test_c09_repeatable_traces(capsys):
    with criterion(capsys, 9, "byte-identical repeated runs") as c:
        def one_run() -> bytes:
            descs = [
                JobDescriptor(job=1, priority=0.7, demand=6,
                              cnf=random_3cnf(Random(301), 50, 210)),
                JobDescriptor(job=2, priority=0.4, arrival_s=0.15, demand=6,
                              cnf=random_3cnf(Random(302), 50, 230)),
                JobDescriptor(job=3, priority=0.5, arrival_s=0.1, demand=4,
                              synthetic_s=0.9),
            ]
            cfg = ClusterConfig(num_pes=8, threads=2, seed=3,
                                balance_period_s=0.05, share_period_s=0.1,
                                timeout_s=30.0)
            rep = Cluster(cfg, descs,
                          demand_changes=[(0.3, 1, 2), (0.5, 1, 6)]).run()
            return "\n".join(rep.trace).encode()

        traces = [one_run() for _ in range(10)]
        assert all(t == traces[0] for t in traces), "trace divergence"
        c["detail"] = f"10 runs, {len(traces[0])} trace bytes each, identical"


# ---------------------------------------------------------------------------
# 10. metrics match hand-computed values; baseline is optimal


def test_c10_metrics_and_baseline_optimality(capsys):
    with criterion(capsys, 10, "metrics and shortest-first baseline") as c:
        assert par2([(True, 100.0)], 300.0) == 100.0
        assert par2([(False, 250.0)], 300.0) == 600.0
        assert par2([(True, 100.0), (False, 50.0)], 300.0) == 350.0

        s = speedups([(100.0, 10.0), (200.0, 20.0)])
        assert s["total"] == 10.0 and s["median"] == 10.0
        s = speedups([(1000.0, 10.0)])
        assert s["total"] == 100.0
        s = speedups([(10.0, 1.0), (64.0, 4.0), (640.0, 8.0)],
                     cores=64, hard_only=True)
        assert s["n"] == 2 and s["total"] == 704.0 / 12.0

        res = hos_baseline([(1, 10.0, 0.0), (2, 30.0, 0.0), (3, 20.0, 0.0)],
                           300.0)
        assert res == {1: 10.0, 3: 30.0, 2: 60.0}
        res = hos_baseline([(1, 10.0, 0.0), (2, None, 0.0)], 7200.0)
        assert res == {1: 10.0, 2: 7210.0}
        res = hos_baseline([(1, 5.0, 1.0), (2, 5.0, 0.0)], 300.0)
        assert res == {2: 5.0, 1: 10.0}  # equal times: arrival breaks the tie

        rng = Random(1003)
        for trial in range(24):
            k = rng.randint(1, 8)
            entries = []
            for j in range(1, k + 1):
                runtime = (None if rng.random() < 0.2
                           else round(rng.uniform(0.5, 40.0), 3))
                entries.append((j, runtime, rng.choice([0.0, 0.5, 1.0])))
            limit = 60.0
            got = hos_baseline(entries, limit)
            mean_got = sum(got.values()) / k
            eff = [limit if r is None else r for _j, r, _a in entries]
            best = min(
                sum((k - i) * run for i, run in enumerate(order))
                for order in permutations(eff)) / k
            assert abs(mean_got - best) <= 1e-9 * max(1.0, best), trial
        c["detail"] = ("par2/speedup/baseline equal hand-computed values; "
                       "mean response optimal vs all permutations on 24 sets")

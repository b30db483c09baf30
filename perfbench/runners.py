"""Drive one workload through the program's public entry points and judge it.

Set-up turns the generated text into ready inputs the way the CLI does
(`parse_scenario` + `Cluster(...)`, or `parse_dimacs` for mono mode); a
pass runs them (`Cluster.run()` or `mono_mode`) and returns the run
reports.  `judge` checks every job of a pass against answers the
benchmark works out on its own.
"""
from __future__ import annotations

import contextlib
import gc
import json
import os
import threading
import time
from dataclasses import dataclass, replace

import flexsat.formula as formula_mod
import flexsat.harness.scenario as scenario_mod
from flexsat.formula import check_model, parse_dimacs
from flexsat.runtime import Cluster, ClusterConfig, mono_mode
from flexsat.solver import cdcl_solve
from flexsat.solver.cdcl import CdclSolver

from workloads import GENERATORS, Inputs

LINGER_LIMIT_S = 60.0
REFERENCE_LIMIT_S = 60.0


@dataclass
class JobOutcome:
    """One job of one pass, as judged by the benchmark."""

    key: str
    cnf: bool
    verdict: str | None
    ok: bool
    reason: str
    response_ms: float        # timed-out jobs: arrival to the end of the run
    latency_ms: float | None
    timed_out: bool


@dataclass
class PassResult:
    intervals: list[tuple[float, float]]   # perf_counter spans of the run calls
    sim_s: float              # summed makespan of the pass's runs
    reports: list
    linger_s: float = 0.0

    @property
    def wall_s(self) -> float:
        return sum(end - start for start, end in self.intervals)


class Runner:
    """Set-up, passes and checks for one workload and seed."""

    def __init__(self, name: str, seed: int, workdir: str):
        self.inputs: Inputs = GENERATORS[name](seed)
        self.sim = name != "real_mono"
        self.workdir = workdir
        for inst in self.inputs.instances:
            with open(os.path.join(workdir, inst.name), "w", encoding="utf-8") as fh:
                fh.write(inst.text)
        # Parsed once, untimed, for the benchmark's own checks.
        self.formulas = [parse_dimacs(inst.text) for inst in self.inputs.instances]
        self._refs: dict[int, str] = {}

    # -- reference answers ---------------------------------------------------
    def reference(self, i: int) -> str | None:
        """Verdict of a sharing-free standalone CDCL run, computed once."""
        if i not in self._refs:
            cnf = self.formulas[i]
            if self.sim:
                self._refs[i] = cdcl_solve(cnf).verdict
            else:
                # real_mono's formula is far past a quick standalone solve;
                # only a claimed verdict ever asks, and it gets a time limit.
                solver = CdclSolver(cnf)
                deadline = time.perf_counter() + REFERENCE_LIMIT_S
                verdict = None
                while verdict is None and time.perf_counter() < deadline:
                    verdict = solver.step(1000)
                self._refs[i] = verdict
        return self._refs[i]

    def prepare_references(self) -> None:
        if self.sim:
            for i in range(len(self.formulas)):
                self.reference(i)

    # -- set-up and one pass ---------------------------------------------------
    def setup(self) -> list:
        """Text inputs to ready runs; this is what setup_s times.

        A scenario becomes a Cluster, as `flexsat run` builds it; in mono
        mode a formula is parsed and `mono_mode` builds the cluster.
        """
        if not self.inputs.scenarios:
            return [formula_mod.parse_dimacs(inst.text) for inst in self.inputs.instances]
        clusters = []
        for text in self.inputs.scenarios:
            scenario = scenario_mod.parse_scenario(text, self.workdir)
            cfg = replace(ClusterConfig(), **scenario.overrides)
            clusters.append(Cluster(cfg, scenario.jobs, scenario.demand_changes,
                                    scenario.max_jobs))
        return clusters

    def run(self, prepared: list, region=None) -> PassResult:
        """One pass; the timed intervals cover only the program's run calls."""
        region = region or (lambda _name: contextlib.nullcontext())
        clock = time.perf_counter
        reports, intervals, linger = [], [], 0.0
        for i, item in enumerate(prepared):
            before = set(threading.enumerate())
            t0 = clock()
            with region("runtime.run"):
                if isinstance(item, Cluster):
                    reports.append(item.run())
                else:
                    cfg = ClusterConfig(**self.inputs.config)
                    reports.append(mono_mode(item, replace(cfg, seed=cfg.seed * 1000 + i)))
            intervals.append((t0, clock()))
            prepared[i] = None  # let the finished cluster go
            if not self.sim:
                linger += _join_new_threads(before)
            gc.collect()  # the run's cyclic garbage, outside the timed call
        return PassResult(intervals, sum(_makespan_s(r) for r in reports),
                          reports, linger)

    # -- checks ----------------------------------------------------------------
    def judge(self, result: PassResult) -> list[JobOutcome]:
        if not self.inputs.scenarios:  # mono mode: one report per formula
            return [self._judge_job(rep, 1, i, self.inputs.instances[i].name)
                    for i, rep in enumerate(result.reports)]
        by_name = {inst.name: i for i, inst in enumerate(self.inputs.instances)}
        out = []
        for k, (text, rep) in enumerate(zip(self.inputs.scenarios, result.reports)):
            for obj in _scenario_objects(text):
                if obj["type"] == "job":
                    idx = by_name[obj["file"]] if "file" in obj else None
                    out.append(self._judge_job(rep, obj["job"], idx,
                                               f"s{k}.job{obj['job']}"))
        return out

    def _judge_job(self, rep, job: int, idx: int | None, key: str) -> JobOutcome:
        rec = rep.jobs.get(job)
        makespan = rep.aggregates.get("makespan_ms") or 0.0
        if rec is None:
            return JobOutcome(key, idx is not None, None, False, "job missing from report",
                              makespan, None, True)
        verdict = rec["verdict"]
        timed_out = rec["response_ms"] is None
        response = (rec["response_ms"] if not timed_out
                    else makespan - (rec["intro_ms"] or 0.0))
        ok, reason = True, ""
        if idx is None:
            if verdict != "DONE":
                ok, reason = False, f"synthetic job ended {verdict}"
        elif verdict in (None, "UNKNOWN"):
            # Real mode stops at its wall budget by design; elsewhere a job
            # without a verdict timed out.
            if self.sim:
                ok, reason = False, "no verdict (timeout)"
        elif verdict == "SAT":
            model = rep.models.get(job)
            if rec["model"] != "ok":
                ok, reason = False, f"model={rec['model']}"
            elif not model or not _model_ok(self.formulas[idx], model):
                ok, reason = False, "model fails the independent check"
        elif verdict == "UNSAT":
            ref = self.reference(idx)
            if ref != "UNSAT":
                ok, reason = False, f"UNSAT but the standalone solver says {ref}"
        else:
            ok, reason = False, f"unexpected verdict {verdict}"
        return JobOutcome(key, idx is not None, verdict, ok, reason, response,
                          rec["latency_ms"], timed_out)


def _model_ok(cnf, model) -> bool:
    try:
        return check_model(cnf, model)
    except ValueError:
        return False


def _makespan_s(report) -> float:
    return (report.aggregates.get("makespan_ms") or 0.0) / 1000.0


def _join_new_threads(before: set) -> float:
    """Wait for threads a real-mode run left behind; return the wait."""
    t0 = time.perf_counter()
    for th in threading.enumerate():
        if th not in before and th is not threading.current_thread():
            th.join(timeout=max(0.0, LINGER_LIMIT_S - (time.perf_counter() - t0)))
            if th.is_alive():
                raise RuntimeError(f"thread {th.name} still running "
                                   f"{LINGER_LIMIT_S:.0f}s after the run returned")
    return time.perf_counter() - t0


def _scenario_objects(text: str):
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            yield json.loads(line)

"""Cluster assembly and run orchestration.

One process hosts the whole cluster: PE 0 is the client, PEs 1..p-1 are
workers.  Every PE, and every solver a PE hosts, runs on the thread that
calls Cluster.run, driven by one event loop: --sim uses a deterministic
discrete-event loop with a simulated solver cost model; --real uses the
wall clock, where messages take no time and a worker's next solver slice
is due as soon as the loop comes back to it.
"""
from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field, fields, replace
from random import Random
from typing import Optional

from ..formula import Cnf
from ..harness.report import RunReport, report_from_trace
from ..sched import JobDescriptor, build_pe_graph, max_request_hops
from ..util import MAX_SECONDS, MIN_BALANCE_PERIOD_S, MIN_PERIOD_S, derive_seed, is_real
from .pe import CLIENT_ID, ClientPE, RunShared, WorkerPE
from .transport import Context, RealContext, SimLoop, Trace, WallLoop

# Out-degree of the random regular graph that job requests walk.
DEGREE = 4

# Simulated solver time slice.  A slice runs max(1, int(SLICE_MS * rate))
# units, so any rate below one unit per slice runs one; on the wall clock a
# slice runs as many and takes what they take.
SLICE_MS = 2.0

# The most units per simulated ms a rate may ask: times SLICE_MS and
# FLIPS_PER_CONFLICT, a slice's budget stays a finite integer.
MAX_RATE = 10**9


# What each kind of knob accepts, checked as written: bools are not ints,
# ints pass as reals, strings are never numbers.
_KINDS = {
    int: (lambda v: type(v) is int, "an integer"),
    float: (lambda v: is_real(v) and -math.inf < v < math.inf, "a finite number"),
    bool: (lambda v: type(v) is bool, "true or false"),
}
_BOUNDS = {">=": operator.ge, ">": operator.gt, "<": operator.lt, "<=": operator.le}


def knob(default, kind, *bounds, flag=None, help=None, traced=True):
    """A ClusterConfig field with its kind (int, finite float or bool; a
    None default also allows None), its (op, number) bounds, its CLI flag
    and help (a bool's are an on/off pair of each), and whether the CONFIG
    trace line shows it."""
    test, what = _KINDS[kind]
    return field(default=default, metadata={
        "kind": kind, "test": test, "what": what, "bounds": bounds,
        "flag": flag, "help": help, "traced": traced})


@dataclass
class ClusterConfig:
    """All the knobs of one cluster run; flagged fields in CLI flag order."""

    num_pes: int = knob(8, int, (">=", 2), flag="--pes",
                        help="total PE count including the client")
    threads: int = knob(2, int, (">=", 1), flag="--threads",
                        help="solver threads per active node")
    alpha: float = knob(0.875, float, (">=", 0.5), ("<=", 1.0), flag="--alpha",
                        help="export budget decay per doubling")
    beta: int = knob(1500, int, (">=", 1), flag="--beta",
                     help="export budget base (literals)")
    share_period_s: float = knob(1.0, float, (">=", MIN_PERIOD_S), ("<=", MAX_SECONDS),
                                 flag="--share-period",
                                 help="seconds between clause-sharing epochs")
    balance_period_s: float = knob(0.1, float, (">=", MIN_BALANCE_PERIOD_S),
                                   ("<=", MAX_SECONDS), flag="--balance-period",
                                   help="seconds between balancing epochs")
    filter_halflife_s: Optional[float] = knob(  # None or 0: never forget
        None, float, (">=", 0), ("<=", MAX_SECONDS), flag="--filter-halflife",
        help="seconds between random forgetting of half the filter")
    epsilon: float = knob(0.05, float, (">=", 0), ("<", 1), flag="--epsilon",
                          help="idle-PE reserve ratio")
    max_jobs: Optional[int] = knob(None, int, (">=", 1), flag="--max-jobs",
                                   help="jobs admitted concurrently", traced=False)
    seed: int = knob(0, int, flag="--seed", help="run seed")
    sim: bool = knob(True, bool, flag=("--sim", "--real"),
                     help=("simulated time (default)", "wall clock"))
    timeout_s: float = knob(300.0, float, (">", 0), ("<=", MAX_SECONDS), flag="--timeout",
                            help="global limit")
    sharing: bool = knob(True, bool)
    # Conflicts and flips per simulated ms.  An unset sls_rate is
    # FLIPS_PER_CONFLICT * cdcl_rate: every slot shares one machine speed.
    cdcl_rate: float = knob(20.0, float, (">", 0), ("<=", MAX_RATE), traced=False)
    sls_rate: Optional[float] = knob(None, float, (">", 0), ("<=", MAX_RATE), traced=False)

    @property
    def budget(self) -> int:
        return math.floor((1.0 - self.epsilon) * (self.num_pes - 1))

    def validate(self) -> None:
        for f in fields(self):
            value, spec = getattr(self, f.name), f.metadata
            if value is None and f.default is None:
                continue
            if not spec["test"](value):
                raise ValueError(f"{f.name} {value!r} is not {spec['what']}")
            for op, bound in spec["bounds"]:
                if not _BOUNDS[op](value, bound):
                    raise ValueError(f"{f.name} must be {op} {bound}")
        if self.budget < 1:
            raise ValueError(
                f"budget {self.budget} < 1: lower epsilon or add PEs "
                f"(p={self.num_pes}, eps={self.epsilon})")

    def public_dict(self) -> dict:
        """The CONFIG trace line: the traced fields and the budget."""
        shown = {f.name: getattr(self, f.name) for f in fields(self) if f.metadata["traced"]}
        return dict(shown, budget=self.budget)


# SLS flips per CDCL conflict when sls_rate is unset (HordeSat's portfolio
# runs both kinds of thread side by side on the same cores).
FLIPS_PER_CONFLICT = 20


class Cluster:
    """A client plus workers, wired to one transport."""

    def __init__(self, cfg: ClusterConfig, jobs: list[JobDescriptor],
                 demand_changes: Optional[list[tuple[float, int, int]]] = None,
                 max_jobs: Optional[int] = None):
        if max_jobs is not None:
            cfg = replace(cfg, max_jobs=max_jobs)
        cfg.validate()
        self.cfg = cfg
        self.trace = Trace()
        sls_rate = FLIPS_PER_CONFLICT * cfg.cdcl_rate if cfg.sls_rate is None else cfg.sls_rate
        workers = tuple(range(1, cfg.num_pes))
        graph = build_pe_graph(workers, DEGREE, derive_seed(cfg.seed, "graph"))
        self.shared = RunShared(
            cfg=cfg,
            h_max=max_request_hops(cfg.num_pes),
            workers=workers,
            e_us=int(cfg.balance_period_s * 1e6),
            share_us=int(cfg.share_period_s * 1e6),
            filter_halflife_us=(int(cfg.filter_halflife_s * 1e6)
                                if cfg.filter_halflife_s else None),
            slice_us=int(SLICE_MS * 1000) if cfg.sim else 0,
            cdcl_per_slice=max(1, int(SLICE_MS * cfg.cdcl_rate)),
            sls_per_slice=max(1, int(SLICE_MS * sls_rate)),
        )
        self._loop = SimLoop(cfg.seed) if cfg.sim else WallLoop()
        context = Context if cfg.sim else RealContext
        ctxs = {pe: context(pe, Random(derive_seed(cfg.seed, "pe", pe)), self._loop,
                            self.trace) for pe in range(cfg.num_pes)}
        self.client = ClientPE(ctxs[CLIENT_ID], self.shared, jobs, demand_changes)
        self.workers = {pe: WorkerPE(ctxs[pe], self.shared, tuple(graph[pe]))
                        for pe in workers}
        self.pes = {CLIENT_ID: self.client, **self.workers}

    def run(self) -> RunReport:
        loop = self._loop
        timeout_us = int(self.cfg.timeout_s * 1e6)
        self.trace.add(0, -1, "CONFIG", None, json.dumps(
            self.cfg.public_dict(), sort_keys=True, separators=(",", ":")))
        pes = self.pes
        for pe in pes.values():
            pe.on_start()
        # Every envelope and timer names a PE of this cluster, and the ids
        # run 0..p-1: each event is one list index and one handler call.
        on_envelope = [pes[pe].on_envelope for pe in range(len(pes))]
        on_timer = [pes[pe].on_timer for pe in range(len(pes))]
        client = self.client
        loop.run(lambda dst, env: on_envelope[dst](env),
                 lambda pe, tag, data: on_timer[pe](tag, data),
                 lambda: client.finished, timeout_us)
        reason = "all-done" if self.client.finished else "timeout"
        end_us = loop.now  # read once: the wall loop's clock moves on
        for pe in pes.values():  # in id order: the client first
            pe.on_stop(end_us)
        self.trace.add(end_us, -1, "RUN_END", None, f"reason={reason}")
        report = report_from_trace(self.trace.lines())
        report.models = dict(self.client.results)
        return report


# The fields mono mode fixes, whatever the config says: the idle reserve
# makes no sense for a single job.
MONO_FIXED = {"epsilon": 0.0, "max_jobs": 1}


def mono_mode(cnf: Cnf, cfg: ClusterConfig) -> RunReport:
    """Solve one formula on the whole cluster (MONO_FIXED applied) and stop
    at the first result; the job asks for the full budget at once."""
    mono_cfg = replace(cfg, **MONO_FIXED)
    mono_cfg.validate()
    desc = JobDescriptor(job=1, priority=0.5, arrival_s=0.0, cnf=cnf,
                         demand=mono_cfg.budget)
    cluster = Cluster(mono_cfg, [desc])
    return cluster.run()

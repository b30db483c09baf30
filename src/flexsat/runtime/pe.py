"""PE actors: a client that submits jobs and workers that schedule + solve.

One WorkerPE hosts at most one active job-tree node plus a small cache of
suspended ones.  All coordination is message passing (see transport):
random-walk job requests, binary-tree volume propagation, epoch-aligned
balancing reductions over the static PE tree, and root-driven clause
sharing epochs over each job tree.
"""
from __future__ import annotations

from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from itertools import accumulate
from random import Random
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Optional

from ..exchange import ClauseFilter, buffer_limit, deserialize, merge, serialize
from ..formula import ModelError, check_model
from ..harness.report import STATS_KEYS
from ..sched import (
    JobDescriptor,
    JobInfo,
    JobRequest,
    PeView,
    apply_events,
    child_indices,
    compute_volumes,
    consolidate,
    next_hop,
    parent_index,
    route_request,
)
from ..solver import SAT, UNKNOWN, SolverStats
from ..solver.cdcl import CdclSolver
from ..solver.config import CdclParams, make_portfolio_config, throttled_thread_count
from ..solver.ring import ImportRing
from ..solver.sls import SlsSolver
from ..util import MIN_BALANCE_PERIOD_S, derive_seed
from . import transport as tp
from .transport import Context, Envelope

if TYPE_CHECKING:
    from .cluster import ClusterConfig

# Node lifecycle.
PENDING = "PENDING"      # adopted, waiting for the payload / first volume
ACTIVE = "ACTIVE"
SUSPENDED = "SUSPENDED"

CLIENT_ID = 0

# Fixed engine sizes.
HUGE_SIZE = 100_000_000    # serialized formula size where solver threads throttle
RING_CAPACITY = 1 << 16    # words in a CDCL slot's import ring
SINK_CAP = 4096            # exported clauses a node holds between sharing epochs
CACHE_SIZE = 3             # job-tree nodes a worker holds, active or suspended

# A balancing epoch's timer re-arms no sooner than this.
_BALANCE_FLOOR_US = int(MIN_BALANCE_PERIOD_S * 1e6)
# The one job table every PE starts from; every later table is read-only too.
_EMPTY_TABLE: Mapping[int, JobInfo] = MappingProxyType({})


@dataclass
class RunShared:
    """The run's config, what the cluster derives from it, and the last job
    table, volume map and decoded broadcast, which the run's PEs share (see
    BasePE._apply_broadcast, BasePE.volumes and WorkerPE._apply_import)."""

    cfg: ClusterConfig
    h_max: int
    workers: tuple[int, ...]
    e_us: int                      # balancing epoch period
    share_us: int                  # clause sharing period
    filter_halflife_us: Optional[int]
    slice_us: int                  # solver time slice; 0 on the wall clock
    cdcl_per_slice: int            # conflicts per slice
    sls_per_slice: int             # flips per slice
    # The last broadcast's input table, its events and the table they gave.
    table_memo: Optional[tuple[Mapping[int, JobInfo], dict[int, JobInfo],
                               Mapping[int, JobInfo]]] = None
    # The job-table entries the last map was computed from, and that map.
    volume_memo: Optional[tuple[tuple[JobInfo, ...], Mapping[int, int]]] = None
    # The last broadcast buffer, its clauses and their running word counts.
    decode_memo: Optional[tuple[list[int], tuple[tuple[int, ...], ...], tuple[int, ...]]] = None


@dataclass
class EpochState:
    """In-flight clause sharing epoch at one tree node."""

    own: list[int]
    expected: dict[int, int]                     # child index -> PE
    got: dict[int, tuple[list[int], int]] = field(default_factory=dict)
    reply_to: Optional[tuple[int, int]] = None   # (PE, parent index); None at root
    participants: list[tuple[int, int]] = field(default_factory=list)


class SolverSlot:
    """One portfolio solver bound to a tree node; it steps while the node is ACTIVE."""

    def __init__(self, index: int, kind: str, solver,
                 ring: Optional[ImportRing], filt: Optional[ClauseFilter],
                 forget_rng):
        self.index = index
        self.kind = kind
        self.solver = solver
        self.done = False  # never steps again: answered, outrun by a sibling, or blocked
        self.ring = ring
        self.filt = filt
        self.forget_rng = forget_rng


@dataclass(eq=False)
class JobNode:
    """One cached job-tree node on a PE."""

    job: int
    x: int
    state: str = PENDING
    desc: Optional[JobDescriptor] = None
    parent_pe: Optional[int] = None
    links: dict[int, int] = field(default_factory=dict)   # adopted child index -> PE
    hints: dict[int, int] = field(default_factory=dict)   # released child index -> its last PE
    requested: set[int] = field(default_factory=set)     # child indices with a request in flight
    volume: int = 0
    slots: Optional[list[SolverSlot]] = None
    next_forget_us: Optional[int] = None   # when the slots' filters next forget
    sink: deque = field(default_factory=deque)
    epochs: dict[int, EpochState] = field(default_factory=dict)
    share_count: int = 0
    last_active: int = 0
    job_epoch: int = 0
    cur_demand: int = 1
    ramp_cap: int = 1    # a root ramps while its volume meets cur_demand < ramp_cap
    ever_active: bool = False
    result_reported: bool = False

    def __post_init__(self) -> None:
        self.key = (self.job, self.x)


class BasePE:
    """Balancing-reduction participation shared by client and workers."""

    # Each subclass resolves kinds and tags through tables built once from its
    # _h_* and _t_* methods, so dispatch makes no per-event name string.
    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._handlers, cls._timers = {}, {}
        for name in dir(cls):
            if name.startswith("_h_"):
                cls._handlers[name[3:].upper()] = getattr(cls, name)
            elif name.startswith("_t_"):
                cls._timers[name[3:]] = getattr(cls, name)

    def __init__(self, ctx: Context, shared: RunShared):
        self.ctx = ctx
        self._post = ctx.send
        self.shared = shared
        self.pe_id = ctx.pe_id
        self.rng = ctx.rng
        p = shared.cfg.num_pes
        self.red_parent = parent_index(self.pe_id) if self.pe_id > 0 else None
        self.red_children = tuple(c for c in child_indices(self.pe_id) if c < p)
        self.pending_events: dict[int, JobInfo] = {}
        self.red: dict[int, tuple[dict[int, JobInfo], int]] = {}  # epoch -> (fold, missing)
        self.jobs_table: Mapping[int, JobInfo] = _EMPTY_TABLE

    # -- plumbing ----------------------------------------------------------
    def send(self, dst: int, kind: str, job: Optional[int], payload: dict,
             extra_delay_us: int = 0) -> None:
        self._post(Envelope(kind, self.pe_id, dst, job, payload), extra_delay_us)

    def log(self, kind: str, job: Optional[int], detail: str = "",
            at_us: Optional[int] = None) -> None:
        self.ctx.log(kind, job, detail, at_us)

    def on_start(self) -> None:
        self.ctx.set_timer(self.shared.e_us, "balance", 1)

    def on_stop(self, now_us: int) -> None:
        """The run has stopped; log what only this PE knows."""

    def on_envelope(self, env: Envelope) -> None:
        handler = self._handlers.get(env.kind)
        if handler is not None:
            handler(self, env)

    def on_timer(self, tag: str, data: Any) -> None:
        handler = self._timers.get(tag)
        if handler is not None:
            handler(self, data)

    # -- balancing epochs --------------------------------------------------
    def _t_balance(self, k: int) -> None:
        events, self.pending_events = self.pending_events, {}
        self._reduce(k, events)
        self._on_balance_tick(k)
        delay = max(_BALANCE_FLOOR_US, (k + 1) * self.shared.e_us - self.ctx.now_us())
        self.ctx.set_timer(delay, "balance", k + 1)

    def _h_event_reduce(self, env: Envelope) -> None:
        self._reduce(env.payload["epoch"], env.payload["events"])

    def _reduce(self, k: int, events: dict[int, JobInfo]) -> None:
        """Fold one contribution to epoch k: this PE's own or a reduction
        child's.  The last one sends the fold up; the client broadcasts it."""
        acc, missing = self.red.get(k, ({}, 1 + len(self.red_children)))
        if events:  # most contributions are empty, and fold to acc itself
            acc = consolidate(acc.values(), events.values())
        if missing > 1:
            self.red[k] = (acc, missing - 1)
            return
        self.red.pop(k, None)
        if self.pe_id != CLIENT_ID:
            self.send(self.red_parent, tp.EVENT_REDUCE, None, {"epoch": k, "events": acc})
        elif acc:
            self._apply_broadcast(k, acc)

    def _h_event_broadcast(self, env: Envelope) -> None:
        self._apply_broadcast(env.payload["epoch"], env.payload["events"])

    def _apply_broadcast(self, k: int, events: dict[int, JobInfo]) -> None:
        for c in self.red_children:
            self.send(c, tp.EVENT_BROADCAST, None, {"epoch": k, "events": events})
        # Every PE gets a broadcast's one events dict, so a PE whose table
        # equals the last input takes the last result; the memo keeps its
        # input and events alive, so their ids stay unique.
        table, memo = self.jobs_table, self.shared.table_memo
        if memo is None or memo[1] is not events or not (memo[0] is table or memo[0] == table):
            memo = self.shared.table_memo = (
                table, events, MappingProxyType(apply_events(table, events)))
        self.jobs_table = memo[2]
        self._after_volumes(k, events)

    @property
    def volumes(self) -> Mapping[int, int]:
        """The volume map of jobs_table, deferred jobs at 0, read-only.  A PE
        whose table holds the entries of the run's last map (the very JobInfo
        objects that the broadcasts carried) shares that map; any other
        computes its own, which becomes the run's last."""
        entries = tuple(self.jobs_table.values())
        memo = self.shared.volume_memo
        if memo is None or memo[0] != entries:
            memo = self.shared.volume_memo = (entries, MappingProxyType(
                compute_volumes(entries, self.shared.cfg.budget)))
        return memo[1]

    # hooks
    def _on_balance_tick(self, k: int) -> None:
        pass

    def _after_volumes(self, k: int, events: dict[int, JobInfo]) -> None:
        pass


class WorkerPE(BasePE):
    """Scheduling + solving actor; at most one node computes at a time."""

    def __init__(self, ctx: Context, shared: RunShared, neighbors: tuple[int, ...]):
        super().__init__(ctx, shared)
        self.neighbors = neighbors
        self.nodes: dict[tuple[int, int], JobNode] = {}
        self._step_on = False
        # SolverStats of every slot this PE started; not the slot itself,
        # so a torn-down node frees its solvers and filters.
        self.slot_stats: list[SolverStats] = []

    def on_stop(self, now_us: int) -> None:
        """One STATS line: the counters of every slot this PE started, summed."""
        if self.slot_stats:
            counts = [len(self.slot_stats)] + [sum(getattr(st, f.name) for st in self.slot_stats)
                                               for f in fields(SolverStats)]
            detail = " ".join(f"{k}={v}" for k, v in zip(STATS_KEYS, counts))
            self.log("STATS", None, detail, at_us=now_us)

    # -- job requests ------------------------------------------------------
    def _h_job_request(self, env: Envelope) -> None:
        req: JobRequest = env.payload["req"]
        if req.origin == self.pe_id and req.hops >= self.shared.h_max:
            self._request_returned(req)  # parked: retry next epoch
            return
        node = self.nodes.get((req.job, req.x))
        # A hint for child x lives on its parent node, if this PE holds it.
        pnode = self.nodes.get((req.job, parent_index(req.x))) if req.x else None
        idle = self._seat() is None
        holds = node is not None and node.state == SUSPENDED
        view = PeView(self.pe_id, idle, holds, idle and self._cache_admits(),
                      pnode.hints.get(req.x) if pnode is not None else None,
                      self.neighbors, self.shared.h_max)
        dec = route_request(req, view, self.rng)
        if dec.action == "resume":
            self._do_resume(node, req)
        elif dec.action == "adopt":
            self._do_adopt(req)
        else:  # park or forward: both just move the request along
            self.send(dec.dst, tp.JOB_REQUEST, req.job, {"req": req})

    def _seat(self) -> Optional[JobNode]:
        """The one node holding this PE: pending, active, or a root suspended
        by deferral, which keeps its seat so it can resume in place."""
        for node in self.nodes.values():
            if node.state != SUSPENDED or node.x == 0:
                return node
        return None

    def _evictable(self) -> list[tuple[int, int, int]]:
        """(last_active, job, x) of the cached nodes an adoption may evict."""
        return [(n.last_active, n.job, n.x) for n in self.nodes.values()
                if n.state == SUSPENDED and n.x != 0 and not n.epochs]

    def _cache_admits(self) -> bool:
        return len(self.nodes) < CACHE_SIZE or bool(self._evictable())

    def _do_resume(self, node: JobNode, req: JobRequest) -> None:
        node.parent_pe = req.origin
        # Provisional volume until the parent's VOLUME_UPDATE lands; the stale
        # pre-suspension value would re-suspend the node immediately.
        node.volume = max(node.volume, node.x + 1)
        self.send(req.origin, tp.ADOPT_ACK, node.job,
                  {"x": node.x, "mode": "resume"})
        self.log("ADOPT", node.job, f"x={node.x} mode=resume hops={req.hops}")
        self._activate(node)

    def _do_adopt(self, req: JobRequest) -> None:
        # Runs only after route_request chose "adopt", so _cache_admits() held:
        # a full cache (nodes never exceed CACHE_SIZE) has a victim.
        if len(self.nodes) >= CACHE_SIZE:
            _t, job, x = min(self._evictable())  # least recently active, then lowest job
            self.teardown_node(job, x, "evict", abort_children=False)
        node = JobNode(req.job, req.x)
        node.parent_pe = req.origin
        node.last_active = self.ctx.now_us()
        self.nodes[node.key] = node
        self.send(req.origin, tp.ADOPT_ACK, req.job, {"x": req.x, "mode": "fresh"})
        self.log("ADOPT", req.job, f"x={req.x} mode=fresh hops={req.hops}")

    def _request_returned(self, req: JobRequest) -> None:
        # Only a child request returns: a root request's origin is the client.
        pnode = self.nodes.get((req.job, parent_index(req.x)))
        if pnode is not None:
            pnode.requested.discard(req.x)  # repair pass retries next epoch

    def _emit_child_request(self, node: JobNode, cx: int) -> None:
        req = JobRequest(node.job, cx, hops=0, origin=self.pe_id)
        dst = next_hop(req, node.hints.get(cx), self.pe_id, self.neighbors, self.rng)
        if dst is None:
            return
        node.requested.add(cx)
        self.send(dst, tp.JOB_REQUEST, node.job, {"req": req})

    # -- adoption handshake ------------------------------------------------
    def _h_adopt_ack(self, env: Envelope) -> None:
        job = env.job
        x = env.payload["x"]
        pnode = self.nodes.get((job, parent_index(x)))
        if pnode is None or pnode.state != ACTIVE:
            self.send(env.src, tp.ABORT, job, {"x": x})
            return
        pnode.requested.discard(x)
        fresh = env.payload["mode"] == "fresh"
        if fresh and x >= pnode.volume:
            # demand shrank while the request was in flight: nothing to
            # preserve; don't leave a PE stuck in PENDING
            self.send(env.src, tp.ABORT, job, {"x": x})
            return
        pnode.links[x] = env.src
        pnode.hints.pop(x, None)
        if fresh:
            self.send(env.src, tp.JOB_PAYLOAD, job,
                      {"x": x, "desc": pnode.desc, "v": pnode.volume})
        elif x < pnode.volume:
            self.send(env.src, tp.VOLUME_UPDATE, job, {"x": x, "v": pnode.volume})
        else:  # demand shrank while the request was in flight
            self._release_child(pnode, x)

    def _h_job_payload(self, env: Envelope) -> None:
        job = env.job
        x = env.payload["x"]
        node = self.nodes.get((job, x))
        if node is None or node.state != PENDING:
            return
        node.desc = env.payload["desc"]
        node.volume = env.payload["v"]  # 0 at a root
        if x == 0:
            desc = node.desc
            budget = self.shared.cfg.budget  # >= 1, as are a demand and a max_volume
            node.ramp_cap = min(budget, desc.demand or budget, desc.max_volume or budget)
            # Ramping is for jobs of unknown parallelism; an explicit
            # demand (mono mode's is the budget) is posted in one go.
            node.cur_demand = 1 if desc.demand is None else node.ramp_cap
            # The root keeps its seat but stays pending until the next
            # balancing epoch grants it a volume; starting it right away
            # would push the busy count past the budget.
            self.pending_events[job] = JobInfo(
                job, desc.priority, desc.arrival_s, node.cur_demand, 0)
        elif x < node.volume:
            self._activate(node)
        else:
            self._suspend_node(node, " early=1")

    # -- node lifecycle ----------------------------------------------------
    def _activate(self, node: JobNode) -> None:
        mode = "resume" if node.ever_active else "fresh"
        node.ever_active = True
        node.state = ACTIVE
        node.last_active = self.ctx.now_us()
        self.log("START", node.job, f"x={node.x} mode={mode}")
        desc = node.desc
        if desc is not None and desc.cnf is not None and node.slots is None:
            self._spawn_slots(node)
        if node.x == 0 and mode == "fresh":  # a root's first activation has its desc
            if desc.cnf is not None and self.shared.cfg.sharing:
                self.ctx.set_timer(self.shared.share_us, "share", node.job)
            if desc.synthetic_s is not None:
                self.ctx.set_timer(int(desc.synthetic_s * 1e6), "synth", node.job)
        self._ensure_step()
        self._apply_volume(node)

    def _spawn_slots(self, node: JobNode) -> None:
        desc = node.desc
        cfg = self.shared.cfg
        t = throttled_thread_count(desc.cnf.serialized_size, HUGE_SIZE, cfg.threads)
        nonce = derive_seed(cfg.seed, "job", node.job)
        if self.shared.filter_halflife_us:
            node.next_forget_us = self.ctx.now_us() + self.shared.filter_halflife_us
        node.slots = []
        for i in range(t):
            scfg = make_portfolio_config(node.x, t, i, nonce)
            if isinstance(scfg.params, CdclParams):
                ring = ImportRing(RING_CAPACITY)
                filt = ClauseFilter()
                slot = SolverSlot(i, "cdcl", None, ring, filt,
                                  Random(derive_seed(scfg.seed, "forget")))
                solver = CdclSolver(
                    desc.cnf, scfg.params, seed=scfg.seed,
                    import_fn=self._make_import(slot),
                    export_fn=self._make_export(node, slot))
                slot.solver = solver
            else:
                solver = SlsSolver(desc.cnf, scfg.params, seed=scfg.seed)
                slot = SolverSlot(i, "sls", solver, None, None, None)
                slot.done = solver.blocked
            node.slots.append(slot)
            self.slot_stats.append(slot.solver.stats)

    # The callbacks close over the node's sink and the slot's filter and
    # ring, never the node or slot: a solver that held its slot would close
    # a cycle, and a torn-down node would wait for a full collection.
    def _make_export(self, node: JobNode, slot: SolverSlot):
        sink, filt = node.sink, slot.filt

        def export_fn(keys):
            if filt.register_export(keys) and len(sink) < SINK_CAP:
                sink.append(keys)
        return export_fn

    def _make_import(self, slot: SolverSlot):
        ring, filt = slot.ring, slot.filt

        def import_fn():
            while True:
                keys = ring.try_pop()
                if keys is None:
                    return None
                if filt.check_import(keys):
                    return keys
        return import_fn

    def _release_child(self, node: JobNode, cx: int) -> None:
        """Hand child cx its new volume, unlink it and keep it as a hint."""
        link = node.links.pop(cx, None)
        if link is not None:
            self.send(link, tp.VOLUME_UPDATE, node.job, {"x": cx, "v": node.volume})
            node.hints[cx] = link
        node.requested.discard(cx)

    def _suspend_node(self, node: JobNode, detail: str = "") -> None:
        job, x = node.key
        for cx in child_indices(x):
            self._release_child(node, cx)
        node.state = SUSPENDED
        node.last_active = self.ctx.now_us()
        self.log("SUSPEND", job, f"x={x}{detail}")

    def _apply_volume(self, node: JobNode) -> None:
        if node.state != ACTIVE:
            return
        job, x = node.key
        v = node.volume
        if x >= v:
            self._suspend_node(node)
            return
        for cx in child_indices(x):
            link = node.links.get(cx)
            if cx < v:
                if link is not None:
                    self.send(link, tp.VOLUME_UPDATE, job, {"x": cx, "v": v})
                elif cx not in node.requested:
                    self._emit_child_request(node, cx)
            else:
                self._release_child(node, cx)

    def _h_volume_update(self, env: Envelope) -> None:
        node = self.nodes.get((env.job, env.payload["x"]))
        if node is None:
            return
        node.volume = env.payload["v"]
        if node.state == ACTIVE:
            self._apply_volume(node)
        elif node.state == PENDING and node.x >= node.volume:
            # shrunk out of the tree before the payload arrived
            self.teardown_node(node.job, node.x, "shrunk", abort_children=False)

    def teardown_node(self, job: int, x: int, reason: str,
                      abort_children: bool = True) -> None:
        node = self.nodes.pop((job, x), None)
        if node is None:
            return
        if abort_children:
            for cx in child_indices(x):
                dst = node.links.get(cx, node.hints.get(cx))
                if dst is not None:
                    self.send(dst, tp.ABORT, job, {"x": cx})
        self.log("END", job, f"x={x} reason={reason}")

    def _h_abort(self, env: Envelope) -> None:
        x = env.payload["x"]
        node = self.nodes.get((env.job, x))
        if x == 0 and node is not None and node.desc is not None:
            # The client gave up on a placed job (deadline): drop it from
            # every volume table, as a completion does.  A duplicate root
            # aborted on adoption has no payload and posts nothing.
            self._emit_event(node, 0)
        self.teardown_node(env.job, x, "abort")

    # -- balancing hooks ---------------------------------------------------
    def _on_balance_tick(self, k: int) -> None:
        # repair pass: re-emit child requests that got parked or lost
        node = self._seat()
        if node is None or node.state != ACTIVE:
            return
        for cx in child_indices(node.x):
            if cx < node.volume and cx not in node.links and cx not in node.requested:
                self._emit_child_request(node, cx)

    def _after_volumes(self, k: int, events: dict[int, JobInfo]) -> None:
        if not self.nodes:  # no node to end or to hand a volume
            return
        for ev in events.values():
            if ev.demand <= 0:
                for key in [key for key in self.nodes if key[0] == ev.job]:
                    self.teardown_node(key[0], key[1], "done")
        for key, node in list(self.nodes.items()):
            job, x = key
            if x != 0 or node.desc is None or job not in self.jobs_table:
                continue
            v = self.volumes.get(job, 0)
            self.log("VOLUME", job, f"v={v} epoch={k} demand={node.cur_demand}")
            if v >= 1:
                node.volume = v
                if v == node.cur_demand < node.ramp_cap:
                    node.cur_demand = min(2 * node.cur_demand, node.ramp_cap)
                    self._emit_event(node, node.cur_demand)
                if node.state == ACTIVE:
                    self._apply_volume(node)
                else:
                    self._activate(node)  # it applies the volume
            elif node.state == ACTIVE:
                node.volume = 0
                self._suspend_node(node)

    def _emit_event(self, node: JobNode, demand: int) -> None:
        node.job_epoch += 1
        self.pending_events[node.job] = JobInfo(
            node.job, node.desc.priority, node.desc.arrival_s, demand, node.job_epoch)

    def _h_demand_set(self, env: Envelope) -> None:
        node = self.nodes.get((env.job, 0))
        if node is None or node.desc is None:
            return
        want = max(1, env.payload["demand"])
        if node.desc.max_volume is not None:
            want = min(want, node.desc.max_volume)
        node.cur_demand = node.ramp_cap = want
        self._emit_event(node, want)

    # -- clause sharing epochs ---------------------------------------------
    def _t_share(self, job: int) -> None:
        node = self.nodes.get((job, 0))
        if node is None:
            return  # tree left this PE; the timer chain ends here
        if node.state == ACTIVE and node.desc is not None and node.desc.cnf is not None:
            node.share_count += 1
            self._open_epoch(node, node.share_count)
        self.ctx.set_timer(self.shared.share_us, "share", job)

    def _drain_exports(self, node: JobNode) -> list[int]:
        buf = serialize(node.sink, buffer_limit(1, self.shared.cfg))
        node.sink.clear()
        return buf

    def _prune_epochs(self, node: JobNode, n: int) -> None:
        for old in [e for e in node.epochs if e <= n - 4]:
            del node.epochs[old]

    def _open_epoch(self, node: JobNode, n: int,
                    reply_to: Optional[tuple[int, int]] = None) -> None:
        """Start epoch n at a node; reply_to is (PE, parent index), None at the root."""
        self._prune_epochs(node, n)
        links = sorted(node.links.items())
        st = EpochState(own=self._drain_exports(node), expected=dict(links),
                        reply_to=reply_to)
        if not links:  # a leaf completes at once
            self._complete_epoch(node, n, st)
            return
        node.epochs[n] = st
        for cx, pe in links:
            self.send(pe, tp.CLAUSES_BEGIN, node.job, {"x": cx, "epoch": n})

    def _h_clauses_begin(self, env: Envelope) -> None:
        job = env.job
        x = env.payload["x"]
        n = env.payload["epoch"]
        node = self.nodes.get((job, x))
        if node is None or node.desc is None or node.desc.cnf is None:
            # absent nodes still answer so the epoch completes
            self.send(env.src, tp.CLAUSES_UP, job,
                      {"x": parent_index(x), "child_x": x, "epoch": n,
                       "buf": [], "u": 0})
            return
        self._open_epoch(node, n, reply_to=(env.src, parent_index(x)))

    def _h_clauses_up(self, env: Envelope) -> None:
        job = env.job
        node = self.nodes.get((job, env.payload["x"]))
        if node is None:
            return
        n = env.payload["epoch"]
        st = node.epochs.get(n)
        if st is None:
            return
        st.got[env.payload["child_x"]] = (env.payload["buf"], env.payload["u"])
        if len(st.got) == len(st.expected):
            self._complete_epoch(node, n, st)

    def _complete_epoch(self, node: JobNode, n: int, st: EpochState) -> None:
        ins = [(buf, u) for _cx, (buf, u) in sorted(st.got.items()) if u > 0]
        # A leaf's own export was written under b(1) = u_out's limit, so
        # merging it alone would return it unchanged.
        merged, u_out = merge(ins, st.own, self.shared.cfg) if ins else (st.own, 1)
        st.participants = [(cx, st.expected[cx])
                           for cx, (_b, u) in sorted(st.got.items()) if u > 0]
        if st.reply_to is None:  # root: turn around and broadcast
            for cx, pe in st.participants:
                self.send(pe, tp.CLAUSES_BCAST, node.job,
                          {"x": cx, "epoch": n, "buf": merged})
            self._apply_import(node, merged)
            node.epochs.pop(n, None)
            self.log("SHARE", node.job, f"epoch={n} u={u_out} lits={len(merged)}")
        else:
            pe, px = st.reply_to
            self.send(pe, tp.CLAUSES_UP, node.job,
                      {"x": px, "child_x": node.x, "epoch": n,
                       "buf": merged, "u": u_out})

    def _h_clauses_bcast(self, env: Envelope) -> None:
        job = env.job
        node = self.nodes.get((job, env.payload["x"]))
        if node is None:
            return
        n = env.payload["epoch"]
        st = node.epochs.pop(n, None)
        buf = env.payload["buf"]
        if st is not None:
            for cx, pe in st.participants:
                self.send(pe, tp.CLAUSES_BCAST, job, {"x": cx, "epoch": n, "buf": buf})
        self._apply_import(node, buf)

    def _apply_import(self, node: JobNode, buf: list[int]) -> None:
        if not buf or not node.slots:
            return
        # Every node of the tree imports the same buffer object, so the run
        # decodes it once; the memo holds the buffer, so its id stays unique.
        memo = self.shared.decode_memo
        if memo is None or memo[0] is not buf:
            clauses = tuple(deserialize(buf))
            memo = self.shared.decode_memo = (
                buf, clauses, tuple(accumulate(len(keys) + 1 for keys in clauses)))
        _buf, clauses, words = memo
        for slot in node.slots:
            if slot.ring is not None:
                slot.ring.push_prefix(clauses, words)

    # -- results -----------------------------------------------------------
    def _solver_finished(self, node: JobNode, slot: SolverSlot, verdict: str,
                         delay_us: int = 0) -> None:
        slot.done = True
        if node.result_reported:
            return
        for other in node.slots:
            other.done = True
        if node.x != 0:
            self.log("RESULT", node.job, f"verdict={verdict} x={node.x}")
        model = slot.solver.model if verdict == SAT else None
        winner = f"pe{self.pe_id}.x{node.x}.s{slot.index}.{slot.kind}"
        self._pass_result(node, verdict, model, slot.solver.stats, winner, delay_us)

    def _h_result(self, env: Envelope) -> None:
        node = self.nodes.get((env.job, env.payload["x"]))
        if node is None or node.result_reported:
            return
        p = env.payload
        self._pass_result(node, p["verdict"], p["model"], p["stats"], p["winner"])

    def _pass_result(self, node: JobNode, verdict: str, model, stats, winner: str,
                     delay_us: int = 0) -> None:
        """Forward a node's first result up the tree; the root hands it to the client."""
        node.result_reported = True
        payload = {"verdict": verdict, "model": model, "stats": stats, "winner": winner}
        if node.x != 0:
            payload["x"] = parent_index(node.x)
            self.send(node.parent_pe, tp.RESULT, node.job, payload,
                      extra_delay_us=delay_us)
            return
        self.log("RESULT", node.job, f"verdict={verdict} x=0")
        self.send(CLIENT_ID, tp.RESULT, node.job, payload, extra_delay_us=delay_us)
        self._emit_event(node, 0)  # completion: drop the job at the next epoch
        self.teardown_node(node.job, 0, "done")

    def _t_synth(self, job: int) -> None:
        node = self.nodes.get((job, 0))
        if node is None or node.result_reported:
            return
        self._pass_result(node, "DONE", None, None, f"pe{self.pe_id}.x0.synth")

    # -- solver driving ----------------------------------------------------
    def _ensure_step(self) -> None:
        if not self._step_on:
            self._step_on = True
            self.ctx.set_timer(self.shared.slice_us, "step", None)

    def _t_step(self, _data) -> None:
        self._step_on = False
        node = self._seat()
        if node is None or node.state != ACTIVE or not node.slots:
            return
        hl = self.shared.filter_halflife_us
        if hl:
            now = self.ctx.now_us()
            while now >= node.next_forget_us:
                for slot in node.slots:
                    if slot.filt is not None and not slot.done:
                        slot.filt.forget_half(slot.forget_rng)
                node.next_forget_us += hl
        any_live = False
        for slot in node.slots:
            if slot.done:
                continue
            stats = slot.solver.stats
            # A slot moves only one of its two counters, and a budget is >= 1.
            before = stats.conflicts + stats.flips
            budget = (self.shared.cdcl_per_slice if slot.kind == "cdcl"
                      else self.shared.sls_per_slice)
            verdict = slot.solver.step(budget)
            if verdict is not None:
                frac = min(1.0, (stats.conflicts + stats.flips - before) / budget)
                self._solver_finished(node, slot, verdict,
                                      delay_us=int(self.shared.slice_us * frac))
                if self.nodes.get(node.key) is not node:
                    return  # the node tore itself down
            else:
                any_live = True
        if any_live:
            self._ensure_step()


class ClientPE(BasePE):
    """Submits jobs, enforces limits, collects results."""

    def __init__(self, ctx: Context, shared: RunShared,
                 descriptors: list[JobDescriptor],
                 demand_changes: Optional[list[tuple[float, int, int]]] = None):
        super().__init__(ctx, shared)
        self.descs = {d.job: d for d in descriptors}
        self.demand_changes = demand_changes or []
        max_jobs = shared.cfg.max_jobs
        self.max_jobs = max_jobs if max_jobs is not None else len(descriptors)
        self.active: set[int] = set()
        self.waiting: list[int] = []
        self.outstanding: set[int] = set()
        self.root_pe: dict[int, int] = {}
        self.early_demand: dict[int, int] = {}  # job -> latest demand before its root's placement
        self.results: dict[int, Any] = {}  # finished job -> its assignment, if any
        self.finished = False

    def on_start(self) -> None:
        super().on_start()
        for job, desc in self.descs.items():
            self.ctx.set_timer(int(desc.arrival_s * 1e6), "intro", job)
        for at_s, job, demand in self.demand_changes:
            self.ctx.set_timer(int(at_s * 1e6), "demand", (job, demand))

    # -- submission --------------------------------------------------------
    def _t_intro(self, job: int) -> None:
        desc = self.descs[job]
        kind = "cnf" if desc.cnf is not None else "synth"
        self.log("INTRO", job, f"pri={desc.priority:g} kind={kind}")
        self.waiting.append(job)
        self._admit_next()

    def _admit_next(self) -> None:
        """Admit waiting jobs, oldest first, while fewer than max_jobs are active."""
        while self.waiting and len(self.active) < self.max_jobs:
            job = self.waiting.pop(0)
            self.active.add(job)
            self._emit_root_request(job)
            limit = self.descs[job].wallclock_limit_s
            if limit is not None:
                self.ctx.set_timer(int(limit * 1e6), "deadline", job)

    def _emit_root_request(self, job: int) -> None:
        req = JobRequest(job, 0, hops=0, origin=self.pe_id)
        dst = next_hop(req, None, self.pe_id, self.shared.workers, self.rng)
        self.outstanding.add(job)
        self.log("REQUEST", job, f"x=0 dst={dst}")
        self.send(dst, tp.JOB_REQUEST, job, {"req": req})

    def _on_balance_tick(self, k: int) -> None:
        # re-emit requests that came back parked
        for job in sorted(self.active):
            if job not in self.root_pe and job not in self.outstanding:
                self._emit_root_request(job)

    def _h_job_request(self, env: Envelope) -> None:
        req: JobRequest = env.payload["req"]
        self.outstanding.discard(req.job)

    # -- placement ---------------------------------------------------------
    def _h_adopt_ack(self, env: Envelope) -> None:
        job = env.job
        self.outstanding.discard(job)
        if job in self.results or job in self.root_pe:
            self.send(env.src, tp.ABORT, job, {"x": 0})
            return
        self.root_pe[job] = env.src
        desc = self.descs[job]
        size = desc.cnf.serialized_size if desc.cnf is not None else 0
        self.log("PLACED", job, f"pe={env.src} size={size}")
        self.send(env.src, tp.JOB_PAYLOAD, job, {"x": 0, "desc": desc, "v": 0})
        if job in self.early_demand:  # per-pair FIFO: it lands after the payload
            demand = self.early_demand.pop(job)
            self.send(env.src, tp.DEMAND_SET, job, {"x": 0, "demand": demand})

    # -- completion --------------------------------------------------------
    def _record(self, job: int, verdict: str, model_state: str, detail: str,
                assignment=None) -> None:
        self._log_done(job, verdict, model_state, detail, self.ctx.now_us(),
                       assignment)
        self.active.discard(job)
        self.root_pe.pop(job, None)
        self.early_demand.pop(job, None)
        self.outstanding.discard(job)
        self._admit_next()
        if len(self.results) == len(self.descs):
            self.finished = True

    def _h_result(self, env: Envelope) -> None:
        job = env.job
        if job in self.results:
            return
        p = env.payload
        verdict = p["verdict"]
        desc = self.descs[job]
        model_state = "-"
        if verdict == SAT and desc.cnf is not None:
            try:
                ok = p["model"] is not None and check_model(desc.cnf, p["model"])
            except ModelError:
                ok = False
            model_state = "ok" if ok else "bad"
        stats = p.get("stats")
        detail = f"winner={p.get('winner', '-')}"
        if stats is not None:
            detail += (f" conflicts={stats.conflicts} learned={stats.learned}"
                       f" imported={stats.imported} flips={stats.flips}")
        self._record(job, verdict, model_state, detail, assignment=p.get("model"))

    def _t_deadline(self, job: int) -> None:
        if job in self.results:
            return
        root = self.root_pe.get(job)
        if root is not None:
            self.send(root, tp.ABORT, job, {"x": 0})
        self._record(job, UNKNOWN, "-", "reason=deadline")

    def _t_demand(self, data: tuple[int, int]) -> None:
        job, demand = data
        root = self.root_pe.get(job)
        self.log("DEMAND", job, f"demand={demand} root={root}")
        if job in self.results:
            return
        if root is None:
            self.early_demand[job] = demand  # sent once the root is placed
        else:
            self.send(root, tp.DEMAND_SET, job, {"x": 0, "demand": demand})

    def _log_done(self, job: int, verdict: str, model_state: str, detail: str,
                  stop_us: int, assignment=None) -> None:
        response_us = max(0, stop_us - int(self.descs[job].arrival_s * 1e6))
        self.results[job] = assignment
        self.log("DONE", job,
                 f"verdict={verdict} response_ms={response_us / 1000:.3f} "
                 f"model={model_state}" + (" " + detail if detail else ""),
                 at_us=stop_us)

    def on_stop(self, now_us: int) -> None:
        """Log whatever is still unresolved when the run stops as UNKNOWN."""
        for job in self.descs:
            if job not in self.results:
                self._log_done(job, UNKNOWN, "-", "reason=timeout", now_us)
        self.finished = True

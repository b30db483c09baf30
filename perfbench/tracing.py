"""Spans around the program's public entry points, for traced runs only.

`instrument(tracer)` rebinds, for the duration of a `with` block, the
public functions as the runtime imported them (`flexsat.runtime.pe`,
`flexsat.runtime.cluster`, `flexsat.harness.scenario`) and a few class
methods, so every call records a span: name, start, end, parent span.
Spans and counters live in per-thread lists in memory; `layer_totals`
folds them at the end.  A span's self time is its duration minus the
durations of its direct children.  Nothing under `src/` knows about it.
"""
from __future__ import annotations

import contextlib
import json
import sys
import threading
import time
import weakref
from collections import Counter


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[tuple[list, list, Counter]] = []
        self.filters: "weakref.WeakSet" = weakref.WeakSet()

    def _state(self) -> tuple[list, list, Counter]:
        st = getattr(self._local, "st", None)
        if st is None:
            st = ([], [], Counter())  # spans, open-span stack, counters
            self._local.st = st
            with self._lock:
                self._states.append(st)
        return st

    def wrap(self, name: str, fn, pre=None, post=None):
        """fn with a span per call; pre(*args) -> token, post(counts, token, result, *args)."""
        state = self._state
        clock = time.perf_counter

        def traced(*args, **kwargs):
            spans, stack, counts = state()
            token = pre(*args) if pre is not None else None
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if post is not None:
                post(counts, token, result, *args)
            return result
        return traced

    def count_only(self, fn, post):
        state = self._state

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            post(state()[2], None, result, *args)
            return result
        return counted

    @contextlib.contextmanager
    def region(self, name: str):
        """A span around a block of the benchmark's own code."""
        spans, stack, _counts = self._state()
        rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
        stack.append(len(spans))
        spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            stack.pop()

    def counts(self) -> Counter:
        total: Counter = Counter()
        for _spans, _stack, counts in self._states:
            total.update(counts)
        return total

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls and self seconds (duration minus direct children)."""
        out: dict[str, dict[str, float]] = {}
        for spans, _stack, _counts in self._states:
            child = [0.0] * len(spans)
            for _name, start, end, parent in spans:
                if parent >= 0:
                    child[parent] += end - start
            for i, (name, start, end, _parent) in enumerate(spans):
                agg = out.setdefault(name, {"calls": 0, "self_s": 0.0})
                agg["calls"] += 1
                agg["self_s"] += end - start - child[i]
        return out

    def write_spans(self, path: str) -> None:
        """One JSON line per span: thread, index, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for tid, (spans, _stack, _counts) in enumerate(self._states):
                for i, (name, start, end, parent) in enumerate(spans):
                    fh.write(json.dumps([tid, i, name, start, end, parent]) + "\n")


def _payload_ints(env) -> int:
    buf = env.payload.get("buf") if isinstance(env.payload, dict) else None
    return len(buf) if isinstance(buf, list) else 0


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Rebind the program's entry points to traced wrappers inside the block."""
    import flexsat.formula as formula_mod
    import flexsat.harness.scenario as scenario_mod
    import flexsat.runtime.cluster as cluster_mod
    import flexsat.runtime.pe as pe_mod
    from flexsat.exchange import ClauseFilter, buffer_limit
    from flexsat.runtime.transport import RealContext, SimLoop
    from flexsat.solver.cdcl import CdclSolver
    from flexsat.solver.ring import ImportRing
    from flexsat.solver.sls import SlsSolver

    def on_volumes(counts, jobs, _result, _jobs_arg, budget):
        counts["sched.compute_volumes.jobs"] += len(jobs)
        if len(jobs) <= budget < sum(j.demand for j in jobs):
            counts["sched.compute_volumes.waterfill"] += 1

    orig_volumes = pe_mod.compute_volumes

    def compute_volumes(jobs, budget):
        return traced_volumes(list(jobs), budget)
    traced_volumes = tracer.wrap("sched.compute_volumes", orig_volumes,
                                 pre=lambda jobs, budget: jobs, post=on_volumes)

    def on_route(counts, _t, decision, *_args):
        counts["sched.route." + decision.action] += 1

    def on_merge(counts, _t, result, buffers, own, cfg):
        out, u_out = result
        counts["exchange.merge.in_ints"] += len(own) + sum(len(b) for b, _u in buffers)
        counts["exchange.merge.out_ints"] += len(out)
        counts["exchange.merge.limit_ints"] += buffer_limit(u_out, cfg)
        if u_out > counts["exchange.merge.u_max"]:
            counts["exchange.merge.u_max"] = u_out

    def on_parse(counts, _t, cnf, *_args):
        counts["formula.parse_dimacs.lits"] += sum(len(c.lits) for c in cnf.clauses)

    def on_filter(counts, _t, admitted, *_args):
        counts["exchange.filter.ops"] += 1
        counts["exchange.filter.admitted"] += bool(admitted)

    def on_import(counts, token, admitted, *args):
        on_filter(counts, token, admitted, *args)
        counts["solver.import.checked"] += 1
        counts["solver.import.accepted"] += bool(admitted)

    def on_forget(counts, *_args):
        counts["exchange.filter.ops"] += 1

    def cdcl_before(solver, *_args):
        return solver.stats.conflicts, solver.stats.propagations

    def on_cdcl(counts, before, _verdict, solver, *_args):
        counts["solver.cdcl.conflicts"] += solver.stats.conflicts - before[0]
        counts["solver.cdcl.props"] += solver.stats.propagations - before[1]

    def on_sls(counts, before, _verdict, solver, *_args):
        counts["solver.sls.flips"] += solver.stats.flips - before

    def on_ring(counts, _t, pushed, *_args):
        counts["solver.ring.pushes"] += 1
        counts["solver.ring.drops"] += not pushed

    def on_message(counts, _t, _r, *args):
        env = args[1]
        counts["runtime.msgs"] += 1
        counts["runtime.msg_ints"] += _payload_ints(env)

    filters = tracer.filters
    orig_filter_init = ClauseFilter.__init__

    def on_report(counts, *_args):
        # Every filter of the run is still reachable when its report is folded.
        counts["exchange.filter.mib"] = max(counts["exchange.filter.mib"],
                                            live_filter_mib(tracer))
        filters.clear()

    def filter_init(self, *args, **kwargs):
        orig_filter_init(self, *args, **kwargs)
        filters.add(self)

    patches = [
        (pe_mod, "compute_volumes", compute_volumes),
        (pe_mod, "apply_events", tracer.wrap("sched.apply_events", pe_mod.apply_events)),
        (pe_mod, "consolidate", tracer.wrap("sched.consolidate", pe_mod.consolidate)),
        (pe_mod, "route_request", tracer.wrap("sched.route_request", pe_mod.route_request,
                                              post=on_route)),
        (pe_mod, "serialize", tracer.wrap("exchange.serialize", pe_mod.serialize)),
        (pe_mod, "deserialize", tracer.wrap("exchange.deserialize", pe_mod.deserialize)),
        (pe_mod, "merge", tracer.wrap("exchange.merge", pe_mod.merge, post=on_merge)),
        (pe_mod, "check_model", tracer.wrap("formula.check_model", pe_mod.check_model)),
        (cluster_mod, "report_from_trace",
         tracer.wrap("harness.report_from_trace", cluster_mod.report_from_trace,
                     post=on_report)),
        (scenario_mod, "parse_dimacs",
         tracer.wrap("formula.parse_dimacs", scenario_mod.parse_dimacs, post=on_parse)),
        (formula_mod, "parse_dimacs",
         tracer.wrap("formula.parse_dimacs", formula_mod.parse_dimacs, post=on_parse)),
        (scenario_mod, "parse_scenario",
         tracer.wrap("harness.parse_scenario", scenario_mod.parse_scenario)),
        (CdclSolver, "__init__", tracer.wrap("solver.init", CdclSolver.__init__)),
        (CdclSolver, "step", tracer.wrap("solver.cdcl.step", CdclSolver.step,
                                         pre=cdcl_before, post=on_cdcl)),
        (SlsSolver, "__init__", tracer.wrap("solver.init", SlsSolver.__init__)),
        (SlsSolver, "step", tracer.wrap("solver.sls.step", SlsSolver.step,
                                        pre=lambda s, *_a: s.stats.flips, post=on_sls)),
        (ClauseFilter, "__init__", filter_init),
        (ClauseFilter, "register_export",
         tracer.wrap("exchange.filter", ClauseFilter.register_export, post=on_filter)),
        (ClauseFilter, "check_import",
         tracer.wrap("exchange.filter", ClauseFilter.check_import, post=on_import)),
        (ClauseFilter, "forget_half",
         tracer.wrap("exchange.filter", ClauseFilter.forget_half, post=on_forget)),
        (ImportRing, "try_push", tracer.count_only(ImportRing.try_push, on_ring)),
        (pe_mod.BasePE, "on_envelope",
         tracer.wrap("runtime.on_envelope", pe_mod.BasePE.on_envelope)),
        (pe_mod.BasePE, "on_timer", tracer.wrap("runtime.on_timer", pe_mod.BasePE.on_timer)),
        (SimLoop, "post_message",
         tracer.wrap("runtime.post_message", SimLoop.post_message, post=on_message)),
        (RealContext, "send", tracer.wrap("runtime.send", RealContext.send, post=on_message)),
    ]
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _new in patches]
    try:
        for owner, attr, new in patches:
            setattr(owner, attr, new)
        yield tracer
    finally:
        for owner, attr, old in saved:
            setattr(owner, attr, old)


def live_filter_mib(tracer: Tracer) -> float:
    """Resident size of every filter still alive: its bit arrays and unit sets."""
    total = 0
    for filt in list(tracer.filters):
        for value in vars(filt).values():
            if isinstance(value, (bytearray, bytes, set, frozenset)):
                total += sys.getsizeof(value)
    return total / 2 ** 20

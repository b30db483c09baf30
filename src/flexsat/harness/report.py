"""Run reports: everything is derived from the run trace.

The trace is the single source of truth for aggregates so that a saved
trace file and a live run produce identical reports.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional


def parse_detail(detail: str) -> dict[str, str]:
    """Split 'k=v k2=v2' detail tokens; non k=v tokens are ignored."""
    out = {}
    for token in detail.split():
        if "=" in token:
            key, _, value = token.partition("=")
            out[key] = value
    return out


def parse_trace_line(line: str) -> Optional[tuple[float, int, str, Optional[int], str]]:
    parts = line.split(" ", 4)
    if len(parts) < 4:
        return None
    try:
        t_ms = float(parts[0])
        pe = int(parts[1])
        job = None if parts[3] == "-" else int(parts[3])
    except ValueError:
        return None
    kind = parts[2]
    detail = parts[4] if len(parts) == 5 else ""
    return t_ms, pe, kind, job, detail


def _job_entry() -> dict:
    return {
        "verdict": None, "response_ms": None, "model": "-",
        "priority": None, "kind": None, "intro_ms": None,
        "first_request_ms": None, "placed_ms": None, "latency_ms": None,
        "fresh_starts": 0, "max_volume": 0, "shares": 0,
    }


@dataclass
class RunReport:
    """Per-job outcomes plus run-level aggregates."""

    config: dict = field(default_factory=dict)
    jobs: dict[int, dict] = field(default_factory=dict)
    aggregates: dict = field(default_factory=dict)
    solver_totals: dict = field(default_factory=dict)
    trace: list[str] = field(default_factory=list, repr=False)
    models: dict[int, Optional[dict]] = field(default_factory=dict, repr=False)

    def to_json(self, include_trace: bool = False) -> str:
        body = {
            "config": self.config,
            "jobs": self.jobs,
            "aggregates": self.aggregates,
            "solver_totals": self.solver_totals,
        }
        if include_trace:
            body["trace"] = self.trace
        return json.dumps(body, sort_keys=True, indent=2)

    @staticmethod
    def from_json(text: str) -> "RunReport":
        body = json.loads(text)
        jobs = {int(k): v for k, v in body.get("jobs", {}).items()}
        return RunReport(
            config=body.get("config", {}),
            jobs=jobs,
            aggregates=body.get("aggregates", {}),
            solver_totals=body.get("solver_totals", {}),
            trace=body.get("trace", []),
        )

    def summary_lines(self) -> list[str]:
        agg = self.aggregates
        out = [
            "jobs: %d solved=%d unsolved=%d" % (
                len(self.jobs), agg.get("solved", 0), agg.get("unsolved", 0)),
            "makespan_ms: %s" % agg.get("makespan_ms"),
            "over_transfer: %s" % agg.get("over_transfer"),
            "busy_max: %s budget: %s" % (agg.get("busy_max"), self.config.get("budget")),
        ]
        for job in sorted(self.jobs):
            rec = self.jobs[job]
            out.append("job %d: verdict=%s response_ms=%s latency_ms=%s "
                       "max_volume=%s model=%s" % (
                           job, rec["verdict"], rec["response_ms"],
                           rec["latency_ms"], rec["max_volume"], rec["model"]))
        return out


def report_from_trace(lines: list[str]) -> RunReport:
    """Fold a trace into a RunReport."""
    report = RunReport(trace=list(lines))
    jobs = report.jobs
    busy: list[tuple[float, int, int]] = []
    share_count = 0
    share_lits = 0
    makespan = None
    end_reason = None

    def entry(job: int) -> dict:
        if job not in jobs:
            jobs[job] = _job_entry()
        return jobs[job]

    for line in lines:
        parsed = parse_trace_line(line)
        if parsed is None:
            continue
        t_ms, _pe, kind, job, detail = parsed
        if kind == "CONFIG":
            try:
                report.config = json.loads(detail)
            except json.JSONDecodeError:
                pass
            continue
        if kind == "TICK":
            f = parse_detail(detail)
            busy.append((t_ms, int(f.get("busy", 0)), int(f.get("active", 0))))
            continue
        if kind == "STATS":
            report.solver_totals = {
                k: int(v) for k, v in parse_detail(detail).items()}
            continue
        if kind == "RUN_END":
            makespan = t_ms
            end_reason = parse_detail(detail).get("reason")
            continue
        if job is None:
            continue
        f = parse_detail(detail)
        if kind == "INTRO":
            rec = entry(job)
            rec["intro_ms"] = t_ms
            rec["priority"] = float(f.get("pri", 0.0))
            rec["kind"] = f.get("kind")
        elif kind == "REQUEST":
            rec = entry(job)
            if rec["first_request_ms"] is None:
                rec["first_request_ms"] = t_ms
        elif kind == "PLACED":
            rec = entry(job)
            if rec["placed_ms"] is None:
                rec["placed_ms"] = t_ms
                if rec["first_request_ms"] is not None:
                    rec["latency_ms"] = round(t_ms - rec["first_request_ms"], 3)
        elif kind == "START":
            rec = entry(job)
            if f.get("mode") == "fresh":
                rec["fresh_starts"] += 1
            if f.get("x") == "0":
                rec["max_volume"] = max(rec["max_volume"], 1)
        elif kind == "VOLUME":
            rec = entry(job)
            rec["max_volume"] = max(rec["max_volume"], int(f.get("v", 0)))
        elif kind == "SHARE":
            rec = entry(job)
            rec["shares"] += 1
            share_count += 1
            share_lits += int(f.get("lits", 0))
        elif kind == "DONE":
            rec = entry(job)
            rec["verdict"] = f.get("verdict")
            rec["response_ms"] = float(f.get("response_ms", 0.0))
            rec["model"] = f.get("model", "-")

    solved = sum(1 for r in jobs.values()
                 if r["verdict"] in ("SAT", "UNSAT", "DONE"))
    fresh_total = sum(r["fresh_starts"] for r in jobs.values())
    volume_total = sum(r["max_volume"] for r in jobs.values())
    report.aggregates = {
        "solved": solved,
        "unsolved": len(jobs) - solved,
        "makespan_ms": makespan,
        "end_reason": end_reason,
        "busy": [[t, b, a] for t, b, a in busy],
        "busy_max": max((b for _, b, _ in busy), default=0),
        "fresh_starts": fresh_total,
        "volume_total": volume_total,
        "over_transfer": (fresh_total / volume_total) if volume_total else None,
        "shares": share_count,
        "share_lits_mean": (share_lits / share_count) if share_count else None,
    }
    return report

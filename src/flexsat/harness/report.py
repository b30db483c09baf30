"""Run reports: everything is derived from the run trace.

The trace is the single source of truth for aggregates so that a saved
trace file and a live run produce identical reports.  Each PE writes only
what it did; the busy series and the solver totals are folds of those
lines, not readings of the PEs.
"""
from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass, field, fields
from typing import Optional

from ..solver import SolverStats
from ..util import MAX_SECONDS, MIN_PERIOD_S, is_real

# The keys of a worker's STATS line: its slot count and their summed counters.
STATS_KEYS = ("slots", *(f.name for f in fields(SolverStats)))


def parse_detail(detail: str) -> dict[str, str]:
    """Split 'k=v k2=v2' detail tokens; non k=v tokens are ignored."""
    out = {}
    for token in detail.split():
        if "=" in token:
            key, _, value = token.partition("=")
            out[key] = value
    return out


def parse_trace_line(line: str) -> Optional[tuple[float, int, str, Optional[int], str]]:
    """(t_ms, pe, kind, job, detail) of a trace line; None if it is not one,
    including a time that is not finite."""
    parts = line.split(" ", 4)
    if len(parts) < 4:
        return None
    try:
        t_ms = float(parts[0])
        pe = int(parts[1])
        job = None if parts[3] == "-" else int(parts[3])
    except ValueError:
        return None
    if not math.isfinite(t_ms):
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
    # The trace as one text, each line followed by "\n": the bytes --trace
    # writes.  A report holds it as zlib level-1 bytes, under a third of its
    # size: the property bound below the class compresses on each write and
    # decompresses on each read.
    trace_text: str = field(default="", repr=False)
    models: dict[int, Optional[dict]] = field(default_factory=dict, repr=False)

    @property
    def trace(self) -> list[str]:
        """The trace's lines, as a new list on each read."""
        return self.trace_text.split("\n")[:-1]

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
        if not isinstance(body, dict):
            raise ValueError("a saved report is a JSON object")
        parts = {name: body.get(name, {})
                 for name in ("config", "jobs", "aggregates", "solver_totals")}
        for name, value in parts.items():
            if not isinstance(value, dict):
                raise ValueError(f"{name} is not a JSON object")
        trace = body.get("trace", [])
        if not (isinstance(trace, list) and all(isinstance(line, str) for line in trace)):
            raise ValueError("trace is not a list of strings")
        if any("\n" in line for line in trace):
            raise ValueError("a trace line holds a newline")
        parts["jobs"] = {int(k): v for k, v in parts["jobs"].items()}
        return RunReport(trace_text=_trace_text(trace), **parts)

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


def _get_trace_text(report: RunReport) -> str:
    return zlib.decompress(report._trace_z).decode("utf-8", "surrogatepass")


def _set_trace_text(report: RunReport, text: str) -> None:
    report._trace_z = zlib.compress(text.encode("utf-8", "surrogatepass"), 1)


# Bound over the dataclass field once the class is made, so that __init__'s
# trace_text= keyword and __eq__ go through it too.  "surrogatepass" lets
# any str through, as a saved report's JSON can hold a lone surrogate.
RunReport.trace_text = property(_get_trace_text, _set_trace_text)


def _trace_text(lines: list[str]) -> str:
    """The lines as one text, each followed by "\n".  No line may hold a
    "\n": a run writes none, and a trace file or a saved report gives none."""
    return "\n".join(lines) + "\n" if lines else ""


def report_from_trace(lines: list[str],
                      max_busy_samples: Optional[int] = None) -> RunReport:
    """Fold a trace into a RunReport; blank lines are skipped.

    The first fault in line order raises ValueError naming its line (the
    first is line 1): a line that is not a trace line, a field that does
    not convert, a CONFIG line that is not a JSON object, or a CONFIG or
    RUN_END line after which the busy series would take more than
    max_busy_samples samples (None: no cap).
    """
    report = RunReport(trace_text=_trace_text(lines))
    jobs = report.jobs
    totals = report.solver_totals = dict.fromkeys(STATS_KEYS, 0)
    seats: list[tuple[int, int, str, int, Optional[str]]] = []
    period = e_us = end_us = None
    share_count = 0
    share_lits = 0
    makespan = None
    end_reason = None

    def check_samples() -> None:
        if (max_busy_samples is not None and e_us and end_us is not None
                and busy_sample_times(e_us, end_us)[max_busy_samples:]):
            raise ValueError(f"RUN_END at {makespan:g} ms with a {period:g} s balancing "
                             f"period gives more than {max_busy_samples} busy samples")

    for n, line in enumerate(lines, 1):
        if not line.strip():
            continue
        parsed = parse_trace_line(line)
        try:
            if parsed is None:
                raise ValueError(f"not a trace line: {line[:60]!r}")
            t_ms, pe, kind, job, detail = parsed
            if kind == "CONFIG":
                report.config = json.loads(detail)
                if not isinstance(report.config, dict):
                    raise ValueError("CONFIG is not a JSON object")
                given = report.config.get("balance_period_s")
                if given is not None:  # a period under 1 µs would never step the fold
                    if not (is_real(given) and MIN_PERIOD_S <= given <= MAX_SECONDS):
                        raise ValueError(f"balance_period_s {given!r} is not a number in "
                                         f"[{MIN_PERIOD_S}, {MAX_SECONDS}]")
                    period, e_us = given, int(given * 1e6)
                check_samples()
                continue
            f = parse_detail(detail)
            if kind == "STATS":
                for key, value in f.items():
                    totals[key] = totals.get(key, 0) + int(value)
                continue
            if kind == "RUN_END":
                makespan = t_ms
                end_us = round(t_ms * 1000)
                end_reason = f.get("reason")
                check_samples()
                continue
            if job is None:
                continue
            if kind in ("START", "SUSPEND", "END", "DONE") or (kind == "REQUEST" and pe == 0):
                seats.append((round(t_ms * 1000), pe, kind, job, f.get("x")))
            rec = jobs.get(job) or jobs.setdefault(job, _job_entry())
            if kind == "INTRO":
                rec["intro_ms"] = t_ms
                rec["priority"] = float(f.get("pri", 0.0))
                rec["kind"] = f.get("kind")
            elif kind == "REQUEST":
                if rec["first_request_ms"] is None:
                    rec["first_request_ms"] = t_ms
            elif kind == "PLACED":
                if rec["placed_ms"] is None:
                    rec["placed_ms"] = t_ms
                    if rec["first_request_ms"] is not None:
                        rec["latency_ms"] = round(t_ms - rec["first_request_ms"], 3)
            elif kind == "START":
                if f.get("mode") == "fresh":
                    rec["fresh_starts"] += 1
                if f.get("x") == "0":
                    rec["max_volume"] = max(rec["max_volume"], 1)
            elif kind == "VOLUME":
                rec["max_volume"] = max(rec["max_volume"], int(f.get("v", 0)))
            elif kind == "SHARE":
                rec["shares"] += 1
                share_count += 1
                share_lits += int(f.get("lits", 0))
            elif kind == "DONE":
                rec["verdict"] = f.get("verdict")
                rec["response_ms"] = float(f.get("response_ms", 0.0))
                rec["model"] = f.get("model", "-")
        except ValueError as exc:
            raise ValueError(f"line {n}: {exc}") from None

    busy = _busy_series(seats, e_us, end_us) if e_us and end_us is not None else []
    solved = sum(1 for r in jobs.values()
                 if r["verdict"] in ("SAT", "UNSAT", "DONE"))
    fresh_total = sum(r["fresh_starts"] for r in jobs.values())
    volume_total = sum(r["max_volume"] for r in jobs.values())
    report.aggregates = {
        "solved": solved,
        "unsolved": len(jobs) - solved,
        "makespan_ms": makespan,
        "end_reason": end_reason,
        "busy": busy,
        "busy_max": max((b for _, b, _ in busy), default=0),
        "fresh_starts": fresh_total,
        "volume_total": volume_total,
        "over_transfer": (fresh_total / volume_total) if volume_total else None,
        "shares": share_count,
        "share_lits_mean": (share_lits / share_count) if share_count else None,
    }
    return report


def busy_sample_times(e_us: int, end_us: int) -> range:
    """When the busy series samples, in µs: e/2 + k*e up to the run's end."""
    return range(e_us // 2, end_us + 1, e_us)


def _busy_series(seats: list, e_us: int, end_us: int) -> list[list]:
    """[t_ms, busy, active] at each of busy_sample_times.

    A sample counts every line stamped at or before it: busy is the number
    of worker PEs with some (job, x) STARTed and not SUSPENDed or ENDed
    since, active the number of jobs with a client REQUEST and no DONE yet.
    """
    seats.sort(key=lambda seat: seat[0])
    started: dict[int, set] = {}
    active: set[int] = set()
    out = []
    i = 0
    for t_us in busy_sample_times(e_us, end_us):
        while i < len(seats) and seats[i][0] <= t_us:
            _t, pe, kind, job, x = seats[i]
            i += 1
            if kind == "REQUEST":
                active.add(job)
            elif kind == "DONE":
                active.discard(job)
            elif pe > 0:
                keys = started.setdefault(pe, set())
                if kind == "START":
                    keys.add((job, x))
                else:
                    keys.discard((job, x))
        out.append([t_us / 1000, sum(1 for keys in started.values() if keys), len(active)])
    return out

"""Scenario files: line-delimited JSON describing a stream of jobs."""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Optional

from ..formula import parse_dimacs
from ..sched import JobDescriptor


class ScenarioError(ValueError):
    """A scenario file line did not make sense."""


@dataclass
class Scenario:
    """Parsed run input: jobs plus mid-run demand changes and overrides."""

    jobs: list[JobDescriptor] = field(default_factory=list)
    demand_changes: list[tuple[float, int, int]] = field(default_factory=list)
    max_jobs: Optional[int] = None
    overrides: dict = field(default_factory=dict)


# ClusterConfig knobs a scenario "config" line may override.
_CONFIG_KEYS = {
    "num_pes", "threads", "epsilon", "balance_period_s", "share_period_s",
    "alpha", "beta", "filter_halflife_s", "seed", "timeout_s", "sharing",
    "ramp", "cache_size", "slice_ms", "cdcl_rate", "sls_rate",
}

# Keys a "job" line may carry.
_JOB_KEYS = {
    "type", "job", "priority", "arrival", "demand", "file", "synthetic",
    "wallclock_limit", "max_volume",
}


def parse_scenario(text: str, base_dir: str = ".") -> Scenario:
    """Parse one JSON object per line; blank lines and # comments skipped."""
    out = Scenario()
    auto_id = 0
    demand_lines: list[tuple[int, int]] = []   # (line number, job id)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"line {lineno}: bad JSON ({exc})") from None
        if not isinstance(obj, dict) or "type" not in obj:
            raise ScenarioError(f"line {lineno}: expected an object with a type")
        kind = obj["type"]
        if kind == "job":
            for key in obj:
                if key not in _JOB_KEYS:
                    raise ScenarioError(f"line {lineno}: unknown job key {key!r}")
            auto_id += 1
            cnf = None
            if "file" in obj:
                path = os.path.join(base_dir, obj["file"])
                try:
                    with open(path, "rb") as fh:
                        cnf = parse_dimacs(fh.read())
                except OSError as exc:
                    raise ScenarioError(f"line {lineno}: {exc}") from None
            try:
                out.jobs.append(JobDescriptor(
                    job=int(obj.get("job", auto_id)),
                    priority=float(obj.get("priority", 0.5)),
                    arrival_s=float(obj.get("arrival", 0.0)),
                    demand=obj.get("demand"),
                    cnf=cnf,
                    synthetic_s=obj.get("synthetic"),
                    wallclock_limit_s=obj.get("wallclock_limit"),
                    max_volume=obj.get("max_volume"),
                ))
            except (TypeError, ValueError) as exc:
                raise ScenarioError(f"line {lineno}: {exc}") from None
        elif kind == "demand":
            try:
                at, job, demand = float(obj["at"]), int(obj["job"]), int(obj["demand"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ScenarioError(f"line {lineno}: {exc}") from None
            out.demand_changes.append((at, job, demand))
            demand_lines.append((lineno, job))
        elif kind == "config":
            for key, value in obj.items():
                if key == "max_jobs":
                    try:
                        out.max_jobs = int(value)
                    except (TypeError, ValueError) as exc:
                        raise ScenarioError(f"line {lineno}: max_jobs: {exc}") from None
                    if out.max_jobs < 1:
                        raise ScenarioError(f"line {lineno}: max_jobs must be >= 1")
                elif key in _CONFIG_KEYS:
                    out.overrides[key] = value
                elif key != "type":
                    raise ScenarioError(f"line {lineno}: unknown config key {key!r}")
        else:
            raise ScenarioError(f"line {lineno}: unknown type {kind!r}")
    if not out.jobs:
        raise ScenarioError("scenario has no jobs")
    seen = set()
    for desc in out.jobs:
        if desc.job in seen:
            raise ScenarioError(f"duplicate job id {desc.job}")
        seen.add(desc.job)
    for lineno, job in demand_lines:
        if job not in seen:
            raise ScenarioError(f"line {lineno}: demand change for unknown job {job}")
    return out


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read(), base_dir=os.path.dirname(path) or ".")

"""Scenario files: line-delimited JSON describing a stream of jobs."""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields, replace
from typing import Optional

from ..formula import DimacsError, parse_dimacs
from ..runtime.cluster import ClusterConfig
from ..sched import JobDescriptor
from ..util import MAX_SECONDS, is_real


class ScenarioError(ValueError):
    """A scenario file line did not make sense."""


@dataclass
class Scenario:
    """Parsed run input: jobs plus mid-run demand changes and overrides."""

    jobs: list[JobDescriptor] = field(default_factory=list)
    demand_changes: list[tuple[float, int, int]] = field(default_factory=list)
    max_jobs: Optional[int] = None
    overrides: dict = field(default_factory=dict)


# Keys a "job" line may carry.
_JOB_KEYS = {
    "type", "job", "priority", "arrival", "demand", "file", "synthetic",
    "wallclock_limit", "max_volume",
}


def parse_scenario(text: str, base_dir: str = ".") -> Scenario:
    """Parse one JSON object per line; blank lines and # comments skipped.

    A config line may set any ClusterConfig field but sim, which the caller
    chooses.  Each config line must leave the overrides so far valid on top
    of the default ClusterConfig; a bad value fails here, with its line
    number.  Job and demand values are checked as given, never coerced.
    """
    config_keys = {f.name for f in fields(ClusterConfig)} - {"sim"}
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
                if type(obj["file"]) is not str:
                    raise ScenarioError(f"line {lineno}: file {obj['file']!r} is not a string")
                path = os.path.join(base_dir, obj["file"])
                try:
                    with open(path, "rb") as fh:
                        cnf = parse_dimacs(fh.read())
                except OSError as exc:
                    raise ScenarioError(f"line {lineno}: {exc}") from None
                except DimacsError as exc:
                    raise ScenarioError(f"line {lineno}: {obj['file']}: {exc}") from None
            arrival = obj.get("arrival", 0.0)
            try:
                out.jobs.append(JobDescriptor(
                    job=obj.get("job", auto_id),
                    priority=obj.get("priority", 0.5),
                    # an integral arrival (2 for 2.0 s) is read as a float
                    arrival_s=float(arrival) if is_real(arrival) else arrival,
                    demand=obj.get("demand"),
                    cnf=cnf,
                    synthetic_s=obj.get("synthetic"),
                    wallclock_limit_s=obj.get("wallclock_limit"),
                    max_volume=obj.get("max_volume"),
                ))
            except (TypeError, ValueError) as exc:
                raise ScenarioError(f"line {lineno}: {exc}") from None
        elif kind == "demand":
            at, job, demand = obj.get("at"), obj.get("job"), obj.get("demand")
            if not (is_real(at) and 0 <= at <= MAX_SECONDS):
                raise ScenarioError(f"line {lineno}: at {at!r} is not a finite number >= 0"
                                    f" and <= {MAX_SECONDS}")
            if type(job) is not int:
                raise ScenarioError(f"line {lineno}: job {job!r} is not an integer")
            if type(demand) is not int or demand < 1:
                raise ScenarioError(
                    f"line {lineno}: demand {demand!r} is not an integer >= 1")
            out.demand_changes.append((float(at), job, demand))
            demand_lines.append((lineno, job))
        elif kind == "config":
            del obj["type"]
            for key in obj:
                if key not in config_keys:
                    raise ScenarioError(f"line {lineno}: unknown config key {key!r}")
            out.overrides.update(obj)
            try:
                replace(ClusterConfig(), **out.overrides).validate()
            except ValueError as exc:
                raise ScenarioError(f"line {lineno}: {exc}") from None
            out.max_jobs = out.overrides.pop("max_jobs", out.max_jobs)
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

"""Command-line front end: solve one CNF, run a scenario, or crunch metrics."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

from ..formula import DimacsError, parse_dimacs
from ..runtime import Cluster, ClusterConfig, mono_mode
from ..runtime.cluster import MONO_FIXED
from ..util import is_real
from .metrics import hos_baseline
from .report import RunReport, report_from_trace
from .scenario import ScenarioError, parse_scenario

EXIT_SAT = 10
EXIT_UNSAT = 20
EXIT_OK = 0
EXIT_ERROR = 1

# The most busy samples `flexsat report` folds from a saved trace: a short
# file with a tiny balancing period and a late RUN_END would ask for more
# than it could ever fold.
MAX_BUSY_SAMPLES = 10 ** 6


class CliError(Exception):
    """Raised for anything that should end the process with exit 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the convention here is 1 for any error
    def error(self, message: str) -> None:
        raise CliError(message)


def _flagged(fixed: dict) -> list:
    """The ClusterConfig fields a command takes a flag for: not those it fixes."""
    return [f for f in fields(ClusterConfig) if f.metadata["flag"] and f.name not in fixed]


def _add_config_flags(sub: argparse.ArgumentParser, fixed: dict) -> None:
    sub.set_defaults(fixed=fixed)
    for f in _flagged(fixed):
        flag, text, kind = f.metadata["flag"], f.metadata["help"], f.metadata["kind"]
        if kind is bool:  # one switch per value
            mode = sub.add_mutually_exclusive_group()
            for opt, const, opt_help in zip(flag, (True, False), text):
                mode.add_argument(opt, dest=f.name, action="store_const",
                                  const=const, help=opt_help)
        else:
            # seconds show as S, anything else as its flag name
            metavar = "S" if f.name.endswith("_s") else flag[2:].replace("-", "_").upper()
            sub.add_argument(flag, dest=f.name, type=kind, metavar=metavar, help=text)
    sub.add_argument("--out", metavar="PATH", help="write the run report as JSON")
    sub.add_argument("--trace", metavar="PATH", help="write the raw trace log")


def _config_from_args(args: argparse.Namespace,
                      overrides: dict | None = None) -> ClusterConfig:
    """The run's config: the defaults, then the overrides (a scenario's
    config lines), then the flags given, then the command's fixed fields."""
    given = {f.name: getattr(args, f.name) for f in _flagged(args.fixed)
             if getattr(args, f.name) is not None}
    cfg = replace(ClusterConfig(), **{**(overrides or {}), **given, **args.fixed})
    cfg.validate()
    return cfg


def _read(path: str, binary: bool = False) -> str | bytes:
    """The file's bytes, or its UTF-8 text; an error names the path."""
    try:
        return Path(path).read_bytes() if binary else Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _write_outputs(report: RunReport, args: argparse.Namespace) -> None:
    if args.out:
        Path(args.out).write_text(report.to_json(include_trace=True) + "\n")
    if args.trace:
        Path(args.trace).write_text(report.trace_text)


def _print_model(model: dict) -> None:
    lits = [(var if model[var] else -var) for var in sorted(model)]
    lits.append(0)
    for i in range(0, len(lits), 20):
        print("v " + " ".join(str(l) for l in lits[i:i + 20]))


def cmd_solve(args: argparse.Namespace) -> int:
    try:
        cnf = parse_dimacs(_read(args.cnf, binary=True))  # as scenario files are read
    except DimacsError as exc:
        raise CliError(f"{args.cnf}: {exc}") from exc
    cfg = _config_from_args(args)
    report = mono_mode(cnf, cfg)
    _write_outputs(report, args)
    job = min(report.jobs)
    verdict = report.jobs[job]["verdict"]
    if verdict == "SAT":
        print("s SATISFIABLE")
        model = report.models.get(job)
        if model is not None:  # {} for a formula with no variables: "v 0"
            _print_model(model)
        return EXIT_SAT
    if verdict == "UNSAT":
        print("s UNSATISFIABLE")
        return EXIT_UNSAT
    print("s UNKNOWN")
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    text = _read(args.scenario)
    try:
        scenario = parse_scenario(text, os.path.dirname(args.scenario) or ".")
    except ScenarioError as exc:
        raise CliError(f"{args.scenario}: {exc}") from exc
    cfg = _config_from_args(args, dict(scenario.overrides, max_jobs=scenario.max_jobs))
    report = Cluster(cfg, scenario.jobs, scenario.demand_changes).run()
    _write_outputs(report, args)
    for line in report.summary_lines():
        print(line)
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    text = _read(args.trace_file)
    try:
        if text.lstrip().startswith("{"):
            lines = RunReport.from_json(text).trace
            if not lines:
                raise ValueError("report has no embedded trace")
        else:
            lines = text.splitlines()
        if not any(line.strip() for line in lines):
            raise ValueError("no trace lines")
        # blank lines kept: line numbers stay the file's
        report = report_from_trace(lines, MAX_BUSY_SAMPLES)
    except ValueError as exc:
        raise CliError(f"{args.trace_file}: {exc}") from exc
    if args.out:
        Path(args.out).write_text(report.to_json(include_trace=False) + "\n")
    for line in report.summary_lines():
        print(line)
    return EXIT_OK


def cmd_hos(args: argparse.Namespace) -> int:
    try:
        body = json.loads(_read(args.times))
    except json.JSONDecodeError as exc:
        raise CliError(f"{args.times}: {exc}") from exc
    if not isinstance(body, list):
        raise CliError(f"{args.times}: expected a JSON list of job entries")
    entries = []
    for i, rec in enumerate(body):
        if not isinstance(rec, dict):
            raise CliError(f"{args.times}: entry {i} is not an object")
        # checked as written: an int job, runtime null or a time, arrival a time
        job, runtime, arrival = rec.get("job"), rec.get("runtime"), rec.get("arrival", 0.0)
        if not (type(job) is int and is_real(arrival) and 0 <= arrival < math.inf
                and (runtime is None or is_real(runtime) and 0 <= runtime < math.inf)):
            raise CliError(f"{args.times}: bad entry {i}: {rec!r}")
        entries.append((job, runtime, float(arrival)))
    limit = args.timeout if args.timeout is not None else 300.0
    if not 0 < limit < math.inf:
        raise CliError(f"--timeout {limit!r} is not a positive finite number")
    try:
        responses = hos_baseline(entries, limit)
    except ValueError as exc:
        raise CliError(f"{args.times}: {exc}") from exc
    mean = sum(responses.values()) / len(responses) if responses else 0.0
    if args.out:
        body = {"responses": responses, "mean_response": mean}
        Path(args.out).write_text(json.dumps(body, indent=2, sort_keys=True) + "\n")
    for job, resp in sorted(responses.items(), key=lambda kv: (kv[1], kv[0])):
        print("job %s: response=%.3f" % (job, resp))
    print("mean_response: %.3f" % mean)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="flexsat",
                     description="Malleable SAT scheduling and solving, desk scale.")
    subs = parser.add_subparsers(dest="command", required=True)

    solve = subs.add_parser("solve", help="solve one CNF in mono mode")
    solve.add_argument("cnf", help="DIMACS file")
    _add_config_flags(solve, MONO_FIXED)
    solve.set_defaults(func=cmd_solve)

    run = subs.add_parser("run", help="run a scheduling scenario")
    run.add_argument("scenario", help="scenario file (JSON lines)")
    _add_config_flags(run, {})
    run.set_defaults(func=cmd_run)

    rep = subs.add_parser("report", help="recompute metrics from trace or report")
    rep.add_argument("trace_file", help="trace log or report JSON")
    rep.add_argument("--out", metavar="PATH", help="write recomputed report JSON")
    rep.set_defaults(func=cmd_report)

    hos = subs.add_parser("hos", help="shortest-first baseline from known runtimes")
    hos.add_argument("times", help="JSON list of {job, runtime, arrival}")
    hos.add_argument("--timeout", type=float, metavar="S", help="penalty limit")
    hos.add_argument("--out", metavar="PATH", help="write schedule JSON")
    hos.set_defaults(func=cmd_hos)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (CliError, ValueError) as exc:
        print(f"flexsat: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entry() -> None:
    sys.exit(main())

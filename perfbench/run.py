"""flexsat benchmark: one workload per call, or all four in fresh processes.

    python3 perfbench/run.py --workload mono_cnf --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py                      # every workload, seed 1

Run from anywhere inside a checkout; the program is imported from the
checkout's own `src/`.  With `--trace 0` the result line carries the
end-to-end metrics, measured untraced; with `--trace 1` it carries the
per-layer metrics of one traced pass.  Human-readable lines come first;
the last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit status: 0 after a result line, even one with "correct": false;
non-zero, with no result line, when the checkout has no flexsat sources
or the arguments are wrong.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPANS_DIR = os.path.join(ROOT, ".perfbench-spans")
WORKLOADS = ("sched_synth", "mono_cnf", "jobs_cnf", "real_mono")


def _import_program() -> None:
    """Put the checkout's src/ first on the path; refuse any other flexsat."""
    if not os.path.isfile(os.path.join(SRC, "flexsat", "runtime", "cluster.py")):
        sys.exit(f"perfbench: no flexsat sources under {SRC}")
    sys.path.insert(0, SRC)
    import flexsat.runtime
    where = os.path.abspath(flexsat.runtime.__file__)
    if not where.startswith(os.path.join(SRC, "flexsat") + os.sep):
        sys.exit(f"perfbench: imported flexsat from {where}, not from {SRC}")


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0,
                    help="measuring time of an untraced run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer figures of a traced pass; spans go to "
                         f"{os.path.basename(SPANS_DIR)}/<workload>.jsonl")
    return ap.parse_args(argv)


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_one(args) -> int:
    import measure
    from runners import Runner

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as workdir:
        runner = Runner(args.workload, args.seed, workdir)
        if args.trace:
            os.makedirs(SPANS_DIR, exist_ok=True)
            spans = os.path.join(SPANS_DIR, f"{args.workload}.jsonl")
            result, info = measure.measure_layers(runner, spans)
        else:
            result, info = measure.measure_end_to_end(runner, args.seconds)

    missing = [m["name"] for m in wanted if m["name"] not in result.metrics]
    if missing:
        result.problems.append("missing metrics: " + ", ".join(missing))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          + " ".join(f"{k}={_fmt(v)}" for k, v in info.items()))
    for name in sorted(result.metrics):
        print(f"  {name:<40} {_fmt(result.metrics[name]):>14} {units.get(name, '')}")
    for problem in result.problems[:20]:
        print(f"  FAIL {problem}")
    metrics = {m["name"]: {"value": result.metrics[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in result.metrics}
    print(json.dumps({"correct": result.correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so each peak RSS is its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {name} exited {proc.returncode}", file=sys.stderr)
            return 2
        out = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and out["correct"]
        merged["attempted"] += out["attempted"]
        merged["failed"] += out["failed"]
        for metric, body in out["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = body
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_program()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())

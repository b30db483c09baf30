"""Harness layer: metrics, reports, scenarios, and the command line."""
import gc
import json
import tracemalloc
from dataclasses import fields, replace

import pytest

from flexsat.formula import check_model, parse_dimacs
from flexsat.harness import cli as cli_mod
from flexsat.harness.cli import _config_from_args, build_parser, main
from flexsat.harness.metrics import hos_baseline, par2, speedups
from flexsat.harness.report import (RunReport, parse_detail, parse_trace_line,
                                    report_from_trace)
from flexsat.harness.scenario import ScenarioError, parse_scenario
from flexsat.runtime import Cluster, ClusterConfig
from flexsat.runtime import pe as pe_mod
from flexsat.runtime.cluster import MONO_FIXED
from flexsat.sched import JobDescriptor
from helpers import synth_cluster

# ---------------------------------------------------------------------------
# metrics


def test_par2_solved_counts_runtime():
    assert par2([(True, 100.0)], 300.0) == 100.0


def test_par2_unsolved_costs_double_limit():
    assert par2([(False, 300.0)], 300.0) == 600.0
    assert par2([(True, 100.0), (False, 42.0)], 300.0) == 350.0


def test_par2_empty_raises():
    with pytest.raises(ValueError):
        par2([], 300.0)


def test_speedups_totals_and_median():
    out = speedups([(100.0, 10.0), (200.0, 20.0)])
    assert out == {"n": 2, "total": 10.0, "median": 10.0}


def test_speedups_seq_timeout_charged_by_caller():
    out = speedups([(1000.0, 10.0)])
    assert out["total"] == 100.0 and out["median"] == 100.0


def test_speedups_hard_only_filter():
    pairs = [(10.0, 1.0), (64.0, 4.0), (640.0, 8.0)]
    out = speedups(pairs, cores=64, hard_only=True)
    assert out["n"] == 2
    assert out["total"] == pytest.approx(704.0 / 12.0)
    assert out["median"] == pytest.approx((16.0 + 80.0) / 2)
    with pytest.raises(ValueError):
        speedups(pairs, hard_only=True)


def test_speedups_drops_nonpositive_and_empty():
    assert speedups([(0.0, 5.0), (5.0, 0.0)]) == \
        {"n": 0, "total": None, "median": None}


def test_hos_shortest_first():
    out = hos_baseline([(1, 10.0, 0.0), (2, 30.0, 0.0), (3, 20.0, 0.0)], 300.0)
    assert out == {1: 10.0, 3: 30.0, 2: 60.0}


def test_hos_unsolved_charged_limit():
    out = hos_baseline([(1, 10.0, 0.0), (2, None, 0.0)], 7200.0)
    assert out[1] == 10.0 and out[2] == 7210.0


def test_hos_arrival_breaks_ties():
    out = hos_baseline([(9, 5.0, 2.0), (4, 5.0, 1.0), (7, 5.0, 3.0)], 100.0)
    assert out == {4: 5.0, 9: 10.0, 7: 15.0}


# ---------------------------------------------------------------------------
# trace parsing and reports

# Busy samples fall at 50, 150, 250 and 350 ms (balance_period_s 0.1).  The
# TICK lines of older traces are ignored: their values are never folded.
TRACE = """\
0.000 -1 CONFIG - {"balance_period_s": 0.1, "budget": 7, "num_pes": 8}
0.100 0 INTRO 1 pri=0.5 kind=cnf
0.200 0 REQUEST 1 x=0 dst=3
0.450 0 PLACED 1 pe=3 size=10
0.500 3 START 1 x=0 mode=fresh
100.000 -1 TICK - busy=6 active=6
100.200 3 VOLUME 1 v=3 epoch=1 demand=4
150.000 3 SHARE 1 epoch=1 u=3 lits=120
150.000 5 START 1 x=2 mode=fresh
200.000 -1 TICK - busy=6 active=6
249.000 4 START 1 x=1 mode=fresh
250.000 4 SUSPEND 1 x=1
270.000 4 START 1 x=1 mode=resume
300.000 0 DONE 1 verdict=SAT response_ms=299.9 model=ok
305.000 3 END 1 x=0 reason=done
305.000 5 END 1 x=2 reason=done
360.000 3 STATS - slots=2 conflicts=60 learned=50 exported=30 imported=10
360.000 4 STATS - slots=2 conflicts=40 learned=40 exported=10
360.000 -1 RUN_END - reason=all-done
""".splitlines()


def test_parse_trace_line():
    assert parse_trace_line("1.500 3 START 7 x=0 mode=fresh") == \
        (1.5, 3, "START", 7, "x=0 mode=fresh")
    assert parse_trace_line("9.000 -1 RUN_END - reason=timeout")[3] is None
    assert parse_trace_line("nonsense") is None
    assert parse_trace_line("a b c d") is None
    assert parse_trace_line("1.0 2 START abc x=1") is None  # a bad job field too


@pytest.mark.parametrize("line", ["inf 1 START 3 x=0", "nan 1 START 3 x=0",
                                  "-inf 1 START 3 x=0", "inf -1 RUN_END - reason=timeout"])
def test_non_finite_trace_times_are_refused(line):
    assert parse_trace_line(line) is None
    for at in (0, 3):
        with pytest.raises(ValueError) as err:
            report_from_trace(TRACE[:at] + [line] + TRACE[at:])
        assert str(err.value) == f"line {at + 1}: not a trace line: {line!r}"


def test_report_from_trace_refuses_a_line_with_a_bad_job_field():
    with pytest.raises(ValueError) as err:
        report_from_trace(["0.100 0 INTRO 1 pri=0.5", "", "1.0 2 START abc x=1"])
    assert str(err.value) == "line 3: not a trace line: '1.0 2 START abc x=1'"


def test_parse_detail():
    assert parse_detail("x=0 mode=fresh junk v=3") == \
        {"x": "0", "mode": "fresh", "v": "3"}


def test_report_from_trace_fields():
    rep = report_from_trace(TRACE)
    job = rep.jobs[1]
    assert job["intro_ms"] == 0.1
    assert job["first_request_ms"] == 0.2
    assert job["placed_ms"] == 0.45
    assert job["latency_ms"] == 0.25
    assert job["fresh_starts"] == 3
    assert job["max_volume"] == 3
    assert job["shares"] == 1
    assert job["verdict"] == "SAT"
    assert job["response_ms"] == 299.9
    assert job["model"] == "ok"

    agg = rep.aggregates
    assert agg["solved"] == 1 and agg["unsolved"] == 0
    assert agg["makespan_ms"] == 360.0
    assert agg["end_reason"] == "all-done"
    # The START at 150 ms counts in the sample at 150 ms; the node that
    # suspends at 250 ms does not count in the sample at 250 ms.
    assert agg["busy"] == [[50.0, 1, 1], [150.0, 2, 1], [250.0, 2, 1], [350.0, 1, 0]]
    assert agg["busy_max"] == 2
    assert agg["fresh_starts"] == 3 and agg["volume_total"] == 3
    assert agg["over_transfer"] == 1.0
    assert agg["shares"] == 1 and agg["share_lits_mean"] == 120.0
    # every STATS line adds up; a key no line gives stays 0
    assert rep.solver_totals == {
        "slots": 4, "conflicts": 100, "propagations": 0, "decisions": 0, "restarts": 0,
        "flips": 0, "learned": 90, "exported": 40, "imported": 10}
    assert rep.config["budget"] == 7


def test_busy_series_ignores_tick_lines_and_needs_a_period():
    head = '0.000 -1 CONFIG - {"balance_period_s": 0.02}'
    ticks = ["10.000 -1 TICK - busy=3 active=2", "30.000 -1 TICK - busy=3 active=2"]
    end = "40.000 -1 RUN_END - reason=timeout"
    assert report_from_trace([head, *ticks, end]).aggregates["busy"] == [
        [10.0, 0, 0], [30.0, 0, 0]]
    # without a balancing period, or without a run end, there are no samples
    assert report_from_trace(['0.000 -1 CONFIG - {}', *ticks, end]).aggregates["busy"] == []
    assert report_from_trace([head, *ticks]).aggregates["busy"] == []
    assert report_from_trace(TRACE[1:]).solver_totals["conflicts"] == 100


def test_report_json_roundtrip():
    rep = report_from_trace(TRACE)
    back = RunReport.from_json(rep.to_json(include_trace=True))
    assert back.config == rep.config
    assert back.jobs == rep.jobs
    assert back.aggregates == rep.aggregates
    assert back.solver_totals == rep.solver_totals
    assert back.trace == rep.trace
    assert back.models == {}  # deliberately not serialized


def test_report_holds_the_run_trace_as_one_text():
    cluster = synth_cluster(8, 8)
    rep = cluster.run()
    lines = cluster.trace.lines()
    assert rep.aggregates["solved"] == 8
    assert rep.trace_text == "".join(line + "\n" for line in lines)
    assert rep.trace == lines and rep.trace[-1] in rep.trace
    # each read is a new list, and the report cannot be rebound through it
    assert rep.trace is not rep.trace
    rep.trace.clear()
    assert rep.trace == lines
    with pytest.raises(AttributeError):
        rep.trace = []


@pytest.mark.parametrize("text", ["", "\n", "\n\n", "a\n", " x \n\ny\n", "\u2028\r\x0b\n"])
def test_report_json_roundtrip_keeps_the_trace_text_exactly(text):
    rep = RunReport(config={"seed": 1}, trace_text=text)
    back = RunReport.from_json(rep.to_json(include_trace=True))
    assert back == rep and back.trace == rep.trace
    assert json.loads(rep.to_json(include_trace=True))["trace"] == text.split("\n")[:-1]


def test_report_json_roundtrip_of_a_run():
    rep = synth_cluster(8, 8).run()
    back = RunReport.from_json(rep.to_json(include_trace=True))
    assert back.trace_text == rep.trace_text
    assert back.to_json(include_trace=True) == rep.to_json(include_trace=True)


def test_report_keeps_any_trace_text_through_its_compressed_bytes():
    """The trace is held compressed, and a saved report's JSON may hold a
    lone surrogate: the text read back is the text written, and equal texts
    make equal reports."""
    rep = RunReport.from_json(json.dumps({"trace": ["a\ud800b", "\u00e9"]}))
    assert rep.trace == ["a\ud800b", "\u00e9"]
    assert rep == RunReport(trace_text="a\ud800b\n\u00e9\n")
    rep.trace_text = "x\n"
    assert rep.trace == ["x"] and rep != RunReport()


def test_a_saved_trace_line_holding_a_newline_is_refused():
    body = json.loads(RunReport().to_json())
    for trace in (["a\nb"], ["0.000 -1 CONFIG - {}", "\n"]):
        with pytest.raises(ValueError, match="newline"):
            RunReport.from_json(json.dumps(dict(body, trace=trace)))


def test_cli_trace_file_is_the_report_trace_text(tmp_path, capsys):
    scen = tmp_path / "scen.jsonl"
    scen.write_text("\n".join([
        '{"type": "config", "num_pes": 6, "seed": 4, "timeout_s": 30.0}',
        '{"type": "job", "synthetic": 0.8, "demand": 3, "priority": 0.6}',
        '{"type": "job", "synthetic": 0.5, "demand": 2, "arrival": 0.4}',
    ]) + "\n")
    out_json, out_trace = tmp_path / "report.json", tmp_path / "run.trace"
    assert main(["run", str(scen), "--out", str(out_json), "--trace", str(out_trace)]) == 0
    capsys.readouterr()
    lines = json.loads(out_json.read_text())["trace"]
    assert len(lines) > 10
    assert out_trace.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_retained_report_memory_is_bounded():
    """A report of a 64-job run on 64 PEs keeps under 0.09 MiB: its trace is
    one zlib-compressed text, not one plain text (about 0.13 MiB in all)
    nor some 1 900 line objects (about 0.23 MiB)."""
    cluster = synth_cluster(64, 64)
    tracemalloc.start()
    try:
        before, _peak = tracemalloc.get_traced_memory()
        rep = cluster.run()
        del cluster
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert rep.aggregates["solved"] == 64 and len(rep.trace) > 1500
    assert held <= 0.09 * 2 ** 20


def test_summary_lines_shape():
    lines = report_from_trace(TRACE).summary_lines()
    assert lines[0].startswith("jobs: 1 solved=1")
    assert any(l.startswith("job 1: verdict=SAT") for l in lines)


# ---------------------------------------------------------------------------
# scenarios


def test_parse_scenario_full(tmp_path):
    (tmp_path / "f.cnf").write_text("p cnf 2 1\n1 2 0\n")
    text = "\n".join([
        '# comment line',
        '{"type": "config", "max_jobs": 2, "seed": 9}',
        '{"type": "job", "file": "f.cnf", "priority": 0.7}',
        '{"type": "job", "synthetic": 1.5, "arrival": 2.0, "demand": 4}',
        '{"type": "demand", "at": 3.0, "job": 2, "demand": 1}',
    ])
    sc = parse_scenario(text, base_dir=str(tmp_path))
    assert len(sc.jobs) == 2
    assert sc.jobs[0].cnf.num_vars == 2 and sc.jobs[0].priority == 0.7
    assert sc.jobs[1].job == 2 and sc.jobs[1].synthetic_s == 1.5
    assert sc.demand_changes == [(3.0, 2, 1)]
    assert sc.max_jobs == 2
    assert sc.overrides == {"seed": 9}


@pytest.mark.parametrize("text,msg", [
    ("{broken", "bad JSON"),
    ('{"no": "type"}', "expected an object"),
    ('{"type": "mystery"}', "unknown type"),
    ('{"type": "config"}', "no jobs"),
    ('{"type": "demand", "at": 1.0}', "line 1"),
    ('{"type": "job", "synthetic": 1.0, "job": 3}\n'
     '{"type": "job", "synthetic": 1.0, "job": 3}', "duplicate job id"),
    ('{"type": "job", "file": "missing.cnf"}', "missing.cnf"),
    ('{"type": "job", "synthetic": 1.0, "priority": 2.0}', "priority"),
    ('{"type": "job", "synthetic": 0.5, "prioirty": 0.9}',
     "line 1: unknown job key 'prioirty'"),
    ('{"type": "job", "synthetic": 1.0}\n{"type": "job", "synthetic": 1.0, "cpu_limit": 5}',
     "line 2: unknown job key 'cpu_limit'"),
    ('{"type": "job", "synthetic": 1.0, "seq_time": 9.0}',
     "line 1: unknown job key 'seq_time'"),
    ('{"type": "job", "synthetic": 1.0}\n{"type": "config", "max_jobs": 0}',
     "line 2: max_jobs must be >= 1"),
    ('{"type": "config", "max_jobs": -3}\n{"type": "job", "synthetic": 1.0}',
     "line 1: max_jobs must be >= 1"),
    ('{"type": "config", "max_jobs": "two"}\n{"type": "job", "synthetic": 1.0}',
     "line 1: max_jobs"),
    ('{"type": "config", "num_pes": 1}\n{"type": "job", "synthetic": 1.0}',
     "line 1: num_pes must be >= 2"),
    ('{"type": "job", "synthetic": 1.0}\n{"type": "config", "alpha": "x"}',
     "line 2: alpha 'x' is not a finite number"),
    ('{"type": "job", "synthetic": 1.0, "wallclock_limit": "x"}',
     "line 1: wallclock_limit_s 'x' is not a positive finite number"),
    ('{"type": "job", "synthetic": 1.0, "wallclock_limit": 0}',
     "line 1: wallclock_limit_s 0 is not a positive finite number"),
    ('{"type": "job", "synthetic": 1.0}\n{"type": "job", "synthetic": "2"}',
     "line 2: synthetic_s '2' is not a positive finite number"),
    ('{"type": "job", "synthetic": -1.0}',
     "line 1: synthetic_s -1.0 is not a positive finite number"),
    ('{"type": "job", "synthetic": Infinity}',
     "line 1: synthetic_s inf is not a positive finite number"),
    ('{"type": "job", "synthetic": 1.0, "arrival": -5}',
     "line 1: arrival_s -5.0 is not a finite number >= 0"),
    ('{"type": "job", "synthetic": 1.0, "max_volume": 0}',
     "line 1: max_volume 0 is not an integer >= 1"),
    ('{"type": "job", "synthetic": 1.0}\n{"type": "job", "synthetic": 1.0, "max_volume": 2.5}',
     "line 2: max_volume 2.5 is not an integer >= 1"),
    # Job and demand values are checked as given, never coerced.
    ('{"type": "job", "synthetic": 1.0, "job": 3.7}', "line 1: job 3.7 is not an integer"),
    ('{"type": "job", "synthetic": 1.0, "job": "3"}', "line 1: job '3' is not an integer"),
    ('{"type": "job", "synthetic": 1.0}\n{"type": "job", "synthetic": 1.0, "job": true}',
     "line 2: job True is not an integer"),
    ('{"type": "job", "synthetic": 1.0, "priority": "0.25"}',
     r"line 1: priority '0\.25' is not a number in \(0,1\)"),
    ('{"type": "job", "synthetic": 1.0, "priority": true}',
     "line 1: priority True is not a number"),
    ('{"type": "job", "synthetic": 1.0, "arrival": true}',
     "line 1: arrival_s True is not a finite number >= 0"),
    ('{"type": "job", "synthetic": 1.0, "job": 1}\n{"type": "demand", "at": -3, "job": 1, "demand": 2}',
     "line 2: at -3 is not a finite number >= 0"),
    ('{"type": "demand", "at": "1", "job": 1, "demand": 2}\n{"type": "job", "synthetic": 1.0}',
     "line 1: at '1' is not a finite number >= 0"),
    ('{"type": "demand", "at": Infinity, "job": 1, "demand": 2}\n{"type": "job", "synthetic": 1.0}',
     "line 1: at inf is not a finite number >= 0"),
    ('{"type": "job", "synthetic": 1.0, "job": 1}\n{"type": "demand", "at": 1, "job": 1.9, "demand": 2}',
     "line 2: job 1.9 is not an integer"),
    ('{"type": "demand", "at": 1, "job": true, "demand": 2}\n{"type": "job", "synthetic": 1.0}',
     "line 1: job True is not an integer"),
    ('{"type": "job", "synthetic": 1.0, "job": 1}\n{"type": "demand", "at": 1, "job": 1, "demand": 2.7}',
     "line 2: demand 2.7 is not an integer >= 1"),
    ('{"type": "demand", "at": 1, "job": 1, "demand": 0}\n{"type": "job", "synthetic": 1.0}',
     "line 1: demand 0 is not an integer >= 1"),
    ('{"type": "demand", "at": 1, "job": 1}\n{"type": "job", "synthetic": 1.0}',
     "line 1: demand None is not an integer >= 1"),
    ('{"type": "config", "max_jobs": 2.7}\n{"type": "job", "synthetic": 1.0}',
     "line 1: max_jobs 2.7 is not an integer"),
    ('{"type": "config", "max_jobs": true}\n{"type": "job", "synthetic": 1.0}',
     "line 1: max_jobs True is not an integer"),
    # Config values are checked as written against ClusterConfig's table.
    ('{"type": "config", "num_pes": 8.5}\n{"type": "job", "synthetic": 1.0}',
     "line 1: num_pes 8.5 is not an integer"),
    ('{"type": "job", "synthetic": 1.0}\n{"type": "config", "seed": 1.5}',
     "line 2: seed 1.5 is not an integer"),
    ('{"type": "job", "synthetic": 1.0}\n\n{"type": "config", "sharing": "no"}',
     "line 3: sharing 'no' is not true or false"),
    ('{"type": "config", "threads": true}\n{"type": "job", "synthetic": 1.0}',
     "line 1: threads True is not an integer"),
    # Fixed engine sizes are constants, not config keys.
    ('{"type": "config", "seed": 2}\n{"type": "config", "cache_size": 1}\n'
     '{"type": "job", "synthetic": 1.0}', "line 2: unknown config key 'cache_size'"),
    ('{"type": "config", "slice_ms": 2.0}\n{"type": "job", "synthetic": 1.0}',
     "line 1: unknown config key 'slice_ms'"),
    ('{"type": "config", "beta": 1500.0}\n{"type": "job", "synthetic": 1.0}',
     "line 1: beta 1500.0 is not an integer"),
    ('{"type": "job", "synthetic": 1.0}\n{"type": "config", "balance_period_s": 1e-9}',
     "line 2: balance_period_s must be >= 0.001"),
    ('{"type": "config", "share_period_s": 5e-7}\n{"type": "job", "synthetic": 1.0}',
     "line 1: share_period_s must be >= 1e-06"),
    ('{"type": "config", "balance_period_s": NaN}\n{"type": "job", "synthetic": 1.0}',
     "line 1: balance_period_s nan is not a finite number"),
    ('{"type": "job", "synthetic": 1.0}\n{"type": "config", "cdcl_rate": NaN}',
     "line 2: cdcl_rate nan is not a finite number"),
    ('{"type": "config", "sls_rate": Infinity}\n{"type": "job", "synthetic": 1.0}',
     "line 1: sls_rate inf is not a finite number"),
    ('{"type": "config", "timeout_s": Infinity}\n{"type": "job", "synthetic": 1.0}',
     "line 1: timeout_s inf is not a finite number"),
    ('{"type": "config", "epsilon": -Infinity}\n{"type": "job", "synthetic": 1.0}',
     "line 1: epsilon -inf is not a finite number"),
    ('{"type": "config", "filter_halflife_s": NaN}\n{"type": "job", "synthetic": 1.0}',
     "line 1: filter_halflife_s nan is not a finite number"),
    # Every time is at most MAX_SECONDS, so it fits integer µs.
    ('{"type": "job", "synthetic": 1e308}',
     "line 1: synthetic_s 1e\\+308 is not a positive finite number <= 1000000000"),
    ('{"type": "job", "synthetic": 1.0, "wallclock_limit": 1e10}',
     "line 1: wallclock_limit_s 10000000000.0 is not a positive finite number <= 1000000000"),
    ('{"type": "job", "synthetic": 1.0, "arrival": 1e308}',
     "line 1: arrival_s 1e\\+308 is not a finite number >= 0 and <= 1000000000"),
    ('{"type": "job", "synthetic": 1.0, "job": 1}\n{"type": "demand", "at": 1e308, "job": 1, "demand": 2}',
     "line 2: at 1e\\+308 is not a finite number >= 0 and <= 1000000000"),
    ('{"type": "config", "timeout_s": 1e308}\n{"type": "job", "synthetic": 1.0}',
     "line 1: timeout_s must be <= 1000000000"),
    ('{"type": "job", "synthetic": 1.0}\n{"type": "config", "share_period_s": 1e308}',
     "line 2: share_period_s must be <= 1000000000"),
    # A rate whose slice budget would overflow an integer count.
    ('{"type": "config", "cdcl_rate": 1e308}\n{"type": "job", "synthetic": 1.0}',
     "line 1: cdcl_rate must be <= 1000000000"),
    # mono mode's job asks for the whole budget; no config knob chooses that
    ('{"type": "config", "ramp": "full"}\n{"type": "job", "synthetic": 1.0}',
     "line 1: unknown config key 'ramp'"),
    ('{"type": "job", "synthetic": 1.0}\n{"type": "config", "sls_rate": 1e308}',
     "line 2: sls_rate must be <= 1000000000"),
    # a job file that is not a path string, not even one to join
    ('{"type": "job", "file": 5}', "line 1: file 5 is not a string"),
    ('{"type": "job", "synthetic": 1.0}\n{"type": "job", "file": null}',
     "line 2: file None is not a string"),
    ('{"type": "job", "file": ["a.cnf"]}', "line 1: file \\['a.cnf'\\] is not a string"),
    ('{"type": "job", "file": true}', "line 1: file True is not a string"),
])
def test_parse_scenario_errors(text, msg, tmp_path):
    with pytest.raises(ScenarioError, match=msg):
        parse_scenario(text, base_dir=str(tmp_path))


def test_parse_scenario_config_keys_are_cluster_fields():
    # Every ClusterConfig field but sim may be set; sim is the caller's choice.
    job = '{"type": "job", "synthetic": 1.0}\n'
    defaults = ClusterConfig(max_jobs=2)
    for f in fields(ClusterConfig):
        line = json.dumps({"type": "config", f.name: getattr(defaults, f.name)})
        if f.name == "sim":
            with pytest.raises(ScenarioError, match="line 2: unknown config key 'sim'"):
                parse_scenario(job + line)
            continue
        sc = parse_scenario(job + line)
        if f.name == "max_jobs":
            assert sc.max_jobs == 2 and sc.overrides == {}
        else:
            assert sc.overrides == {f.name: getattr(defaults, f.name)}


def test_parse_scenario_keeps_checked_values():
    text = ('{"type": "job", "synthetic": 1.0, "job": 4, "priority": 0.25, "arrival": 2}\n'
            '{"type": "demand", "at": 3, "job": 4, "demand": 1}')
    sc = parse_scenario(text)
    desc = sc.jobs[0]
    assert (desc.job, desc.priority, desc.arrival_s) == (4, 0.25, 2.0)
    assert type(desc.arrival_s) is float
    assert sc.demand_changes == [(3.0, 4, 1)] and type(sc.demand_changes[0][0]) is float


def test_parse_scenario_rejects_unknown_config_key():
    text = ('{"type": "job", "synthetic": 1.0}\n'
            '{"type": "config", "num_pez": 8}')
    with pytest.raises(ScenarioError, match="line 2: unknown config key 'num_pez'"):
        parse_scenario(text)


@pytest.mark.parametrize("demand", ['"3"', "0", "true"])
def test_parse_scenario_rejects_bad_job_demand(demand):
    text = ('{"type": "job", "synthetic": 1.0}\n'
            '{"type": "job", "synthetic": 1.0, "demand": %s}' % demand)
    with pytest.raises(ScenarioError, match="line 2: demand .* is not an integer >= 1"):
        parse_scenario(text)


def test_parse_scenario_rejects_demand_for_unknown_job():
    text = ('{"type": "demand", "at": 1.0, "job": 7, "demand": 2}\n'
            '{"type": "job", "synthetic": 1.0}')
    with pytest.raises(ScenarioError, match="line 1: demand change for unknown job 7"):
        parse_scenario(text)


# ---------------------------------------------------------------------------
# command line

SAT_CNF = "p cnf 2 2\n1 0\n-1 2 0\n"
UNSAT_CNF = "p cnf 1 2\n1 0\n-1 0\n"


def _model_from_stdout(out: str) -> dict[int, bool]:
    lits = []
    for line in out.splitlines():
        if line.startswith("v "):
            lits += [int(t) for t in line.split()[1:]]
    assert lits[-1] == 0
    return {abs(l): l > 0 for l in lits[:-1]}


def test_cli_solve_sat(tmp_path, capsys):
    f = tmp_path / "sat.cnf"
    f.write_text(SAT_CNF)
    rc = main(["solve", str(f), "--pes", "4", "--threads", "1", "--seed", "3"])
    out = capsys.readouterr().out
    assert rc == 10
    assert "s SATISFIABLE" in out
    model = _model_from_stdout(out)
    assert check_model(parse_dimacs(SAT_CNF), model)


def test_cli_solve_prints_the_empty_model_of_a_formula_with_no_variables(tmp_path, capsys):
    f = tmp_path / "empty.cnf"
    f.write_text("p cnf 0 0\n")
    assert main(["solve", str(f)]) == 10
    assert capsys.readouterr().out.splitlines() == ["s SATISFIABLE", "v 0"]


def test_cli_solve_unsat(tmp_path, capsys):
    f = tmp_path / "unsat.cnf"
    f.write_text(UNSAT_CNF)
    rc = main(["solve", str(f), "--pes", "4"])
    assert rc == 20
    assert "s UNSATISFIABLE" in capsys.readouterr().out


def test_cli_solve_validates_the_config_mono_runs(tmp_path):
    # The default epsilon leaves no budget at p=2; mono mode fixes it at 0.
    f = tmp_path / "sat.cnf"
    f.write_text(SAT_CNF)
    assert main(["solve", str(f), "--pes", "2"]) == 10


@pytest.mark.parametrize("flags", [["--epsilon", "0.3"], ["--max-jobs", "2"]])
def test_cli_solve_takes_no_flag_for_a_mono_fixed_field(flags, tmp_path, capsys):
    f = tmp_path / "sat.cnf"
    f.write_text(SAT_CNF)
    assert main(["solve", str(f), *flags]) == 1
    err = capsys.readouterr().err
    assert err == f"flexsat: error: unrecognized arguments: {' '.join(flags)}\n"


def test_cli_solve_bad_alpha(tmp_path, capsys):
    f = tmp_path / "sat.cnf"
    f.write_text(SAT_CNF)
    rc = main(["solve", str(f), "--alpha", "0.4"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "alpha must be >= 0.5" in err


@pytest.mark.parametrize("flags,msg", [
    (["--timeout", "inf"], "timeout_s inf is not a finite number"),
    (["--alpha", "nan"], "alpha nan is not a finite number"),
    (["--balance-period", "1e-9"], "balance_period_s must be >= 0.001"),
    (["--share-period", "0"], "share_period_s must be >= 1e-06"),
    (["--timeout", "1e308"], "timeout_s must be <= 1000000000"),
    (["--share-period", "1e308"], "share_period_s must be <= 1000000000"),
])
def test_cli_solve_bad_config_exits_1(flags, msg, tmp_path, capsys):
    f = tmp_path / "sat.cnf"
    f.write_text(SAT_CNF)
    assert main(["solve", str(f), *flags]) == 1
    err = capsys.readouterr().err
    assert err == f"flexsat: error: {msg}\n"


# One case per ClusterConfig field that has a flag; the last test checks
# that no flagged field is missing here.  `solve` has no flag for a field
# mono mode fixes.
FLAG_CASES = [
    (["--pes", "5"], "num_pes", 5),
    (["--threads", "3"], "threads", 3),
    (["--alpha", "0.75"], "alpha", 0.75),
    (["--beta", "900"], "beta", 900),
    (["--share-period", "0.5"], "share_period_s", 0.5),
    (["--balance-period", "0.25"], "balance_period_s", 0.25),
    (["--filter-halflife", "2"], "filter_halflife_s", 2.0),
    (["--epsilon", "0.1"], "epsilon", 0.1),
    (["--max-jobs", "2"], "max_jobs", 2),
    (["--seed", "11"], "seed", 11),
    (["--real"], "sim", False),
    (["--sim"], "sim", True),
    (["--timeout", "9"], "timeout_s", 9.0),
]


@pytest.mark.parametrize("flags,name,value,command", [
    pytest.param(flags, name, value, command, id=f"flags{i}-{name}-{value}-{command}")
    for i, (flags, name, value) in enumerate(FLAG_CASES)
    for command in ("solve", "run") if command == "run" or name not in MONO_FIXED])
def test_cli_flag_sets_its_field(flags, name, value, command):
    cfg = _config_from_args(build_parser().parse_args([command, "in", *flags]))
    assert getattr(cfg, name) == value and type(getattr(cfg, name)) is type(value)
    base = ClusterConfig(**MONO_FIXED) if command == "solve" else ClusterConfig()
    assert replace(cfg, **{name: getattr(ClusterConfig(), name)}) == base


def test_cli_flag_cases_cover_every_flagged_field():
    flagged = {f.name for f in fields(ClusterConfig) if f.metadata["flag"]}
    assert flagged == {name for _flags, name, _value in FLAG_CASES}
    assert _config_from_args(build_parser().parse_args(["run", "in"])) == ClusterConfig()
    assert (_config_from_args(build_parser().parse_args(["solve", "in"]))
            == ClusterConfig(**MONO_FIXED))


def test_cli_unknown_flag(tmp_path, capsys):
    f = tmp_path / "sat.cnf"
    f.write_text(SAT_CNF)
    assert main(["solve", str(f), "--bogus"]) == 1
    assert "flexsat: error" in capsys.readouterr().err


def test_cli_missing_file(capsys):
    assert main(["solve", "/nonexistent/input.cnf"]) == 1
    assert "cannot read" in capsys.readouterr().err
    assert main(["run", "/nonexistent/scen.jsonl"]) == 1
    assert capsys.readouterr().err == ("flexsat: error: cannot read /nonexistent/scen.jsonl: "
                                       "No such file or directory\n")


def test_cli_run_report_cycle(tmp_path, capsys):
    scen = tmp_path / "scen.jsonl"
    scen.write_text("\n".join([
        '{"type": "config", "num_pes": 6, "seed": 4, "timeout_s": 30.0}',
        '{"type": "job", "synthetic": 0.8, "demand": 3, "priority": 0.6}',
        '{"type": "job", "synthetic": 0.5, "demand": 2, "arrival": 0.4}',
    ]) + "\n")
    out_json = tmp_path / "report.json"
    rc = main(["run", str(scen), "--out", str(out_json)])
    run_out = capsys.readouterr().out
    assert rc == 0
    assert run_out.startswith("jobs: 2 solved=2")

    rc = main(["report", str(out_json)])
    report_out = capsys.readouterr().out
    assert rc == 0
    assert report_out == run_out  # recomputed from trace, byte-identical

    body = json.loads(out_json.read_text())
    trace_file = tmp_path / "run.trace"
    trace_file.write_text("\n".join(body["trace"]) + "\n")
    rc = main(["report", str(trace_file)])
    assert rc == 0
    assert capsys.readouterr().out == run_out


def test_cli_run_flags_beat_the_scenario_config(tmp_path, capsys):
    """`flexsat run` lays the flags over the file's config lines."""
    scen = tmp_path / "scen.jsonl"
    scen.write_text("\n".join([
        '{"type": "config", "num_pes": 6, "seed": 9, "max_jobs": 1}',
        '{"type": "job", "synthetic": 0.5, "demand": 2}',
        '{"type": "job", "synthetic": 0.5, "demand": 2}',
    ]) + "\n")
    for flags, seed, second_request_ms in [
            ((), 9, None),                                 # the file's config lines
            (("--seed", "5", "--max-jobs", "2"), 5, 0.0),  # the flags win
    ]:
        trace = tmp_path / "run.trace"
        assert main(["run", str(scen), "--trace", str(trace), *flags]) == 0
        lines = [parse_trace_line(line) for line in trace.read_text().splitlines()]
        config = json.loads(next(p[4] for p in lines if p[2] == "CONFIG"))
        assert config["seed"] == seed
        first_request = {}
        for t_ms, _pe, kind, job, _detail in lines:
            if kind == "REQUEST":
                first_request.setdefault(job, t_ms)
        if second_request_ms is None:  # max_jobs 1: job 2 waits for job 1
            assert first_request[2] >= 500.0
        else:
            assert first_request[2] == second_request_ms
    capsys.readouterr()


def test_balance_period_floor_is_one_ms(tmp_path, capsys, monkeypatch):
    # A shorter period would not run as written: an epoch re-arms no
    # sooner than 1 ms.  Every way in refuses it.
    msg = "balance_period_s must be >= 0.001"
    with pytest.raises(ValueError, match=msg):
        ClusterConfig(balance_period_s=1e-4).validate()
    with pytest.raises(ScenarioError, match="line 1: " + msg):
        parse_scenario('{"type": "config", "balance_period_s": 1e-4}\n'
                       '{"type": "job", "synthetic": 1.0}')
    f = tmp_path / "sat.cnf"
    f.write_text(SAT_CNF)
    assert main(["solve", str(f), "--balance-period", "1e-4"]) == 1
    assert capsys.readouterr().err == f"flexsat: error: {msg}\n"
    # At the floor, every PE's epoch k fires at k ms.
    fired = []
    orig = pe_mod.BasePE.on_timer

    def on_timer(self, tag, data):
        if tag == "balance":
            fired.append((self.pe_id, data, self.ctx.now_us()))
        orig(self, tag, data)

    monkeypatch.setattr(pe_mod.BasePE, "on_timer", on_timer)
    cfg = ClusterConfig(num_pes=4, balance_period_s=1e-3, timeout_s=0.05)
    Cluster(cfg, [JobDescriptor(job=1, priority=0.5, arrival_s=0.0, synthetic_s=1.0)]).run()
    assert len(fired) >= 4 * 45
    assert all(at_us == 1000 * k for _pe, k, at_us in fired)


def test_cli_run_names_the_scenario_line_and_the_job_files_line(tmp_path, capsys):
    (tmp_path / "bad.cnf").write_text("c three variables\np cnf 3 2\n1 7 0\n2 0\n")
    scen = tmp_path / "badjob.jsonl"
    scen.write_text('{"type": "job", "file": "bad.cnf"}\n')
    assert main(["run", str(scen)]) == 1
    err = capsys.readouterr().err
    assert err == f"flexsat: error: {scen}: line 1: bad.cnf: line 3: literal 7 out of range\n"


def test_cli_report_without_trace(tmp_path, capsys):
    rep = report_from_trace(TRACE)
    f = tmp_path / "no_trace.json"
    f.write_text(rep.to_json(include_trace=False))
    assert main(["report", str(f)]) == 1
    assert "no embedded trace" in capsys.readouterr().err


@pytest.mark.parametrize("text,err", [
    ("nonsense\nmore nonsense\n", "line 1: not a trace line: 'nonsense'"),
    ("0.100 0 INTRO 1 pri=0.5\n\n1.0 2 START abc x=1\n",
     "line 3: not a trace line: '1.0 2 START abc x=1'"),
    ("0.100 0 INTRO 1 pri=x\nnonsense\n", "line 1: could not convert string to float: 'x'"),
    ("", "no trace lines"),
    ("\n  \n", "no trace lines"),
    ("0.000 -1 CONFIG - [1,2]\n", "line 1: CONFIG is not a JSON object"),
    ("0.000 -1 CONFIG - {\n", "line 1: Expecting property name enclosed in double quotes:"
     " line 1 column 2 (char 1)"),
    ('0.000 -1 CONFIG - {"balance_period_s": 0}\n',
     "line 1: balance_period_s 0 is not a number in [1e-06, 1000000000]"),
    ("0.100 0 INTRO 1 pri=0.5\n0.200 0 DONE 1 verdict=SAT response_ms=abc\n",
     "line 2: could not convert string to float: 'abc'"),
    ("\n0.100 3 VOLUME 1 v=x\n", "line 2: invalid literal for int() with base 10: 'x'"),
    ('{"trace": 5}', "trace is not a list of strings"),
    ('{"trace": ["0.100 0 INTRO 1 pri=0.5", 7]}', "trace is not a list of strings"),
    ('{"trace": ["0.100 0 INTRO 1 pri=0.5"], "jobs": []}', "jobs is not a JSON object"),
    ('{"trace": ["0.100 0 INTRO 1 pri=0.5", "0.1 0 SHARE 1 lits=?"]}',
     "line 2: invalid literal for int() with base 10: '?'"),
    # a time that is no number of µs would overflow the fold
    ("0.100 0 INTRO 1 pri=0.5\ninf 1 START 1 x=0\n",
     "line 2: not a trace line: 'inf 1 START 1 x=0'"),
    ("nan -1 RUN_END - reason=timeout\n",
     "line 1: not a trace line: 'nan -1 RUN_END - reason=timeout'"),
], ids=["noise", "bad-job", "field-before-noise", "empty", "blank", "config-list",
        "config-json", "config-period", "bad-float", "bad-int-after-blank", "report-trace-int",
        "report-trace-item", "report-jobs-list", "report-bad-int", "inf-time",
        "nan-time"])
def test_cli_report_rejects_non_trace_input(tmp_path, capsys, text, err):
    f = tmp_path / "bad.trace"
    f.write_text(text)
    assert main(["report", str(f)]) == 1
    assert capsys.readouterr().err == f"flexsat: error: {f}: {err}\n"


def test_cli_report_refuses_a_busy_series_past_the_cap(tmp_path, capsys, monkeypatch):
    # 82 bytes whose fold would take 2 000 001 samples: refused before folding.
    f = tmp_path / "long.trace"
    f.write_text('0.000 -1 CONFIG - {"balance_period_s": 1e-6}\n'
                 "2000.000 -1 RUN_END - reason=timeout\n")
    assert len(f.read_bytes()) == 82
    assert main(["report", str(f)]) == 1
    assert capsys.readouterr().err == (
        f"flexsat: error: {f}: line 2: RUN_END at 2000 ms with a 1e-06 s balancing "
        "period gives more than 1000000 busy samples\n")
    # At 1 µs a RUN_END at 2 µs samples 0, 1 and 2: a cap of 3 folds them, of 2 refuses.
    f.write_text('0.000 -1 CONFIG - {"balance_period_s": 1e-6}\n'
                 "0.002 -1 RUN_END - reason=timeout\n")
    monkeypatch.setattr(cli_mod, "MAX_BUSY_SAMPLES", 3)
    assert main(["report", str(f), "--out", str(tmp_path / "rep.json")]) == 0
    assert len(json.loads((tmp_path / "rep.json").read_text())["aggregates"]["busy"]) == 3
    monkeypatch.setattr(cli_mod, "MAX_BUSY_SAMPLES", 2)
    capsys.readouterr()
    assert main(["report", str(f)]) == 1
    assert "line 2: RUN_END at 0.002 ms" in capsys.readouterr().err
    # A CONFIG line after the RUN_END is checked too; a live run has no cap.
    lines = ["0.002 -1 RUN_END - reason=timeout", '0.000 -1 CONFIG - {"balance_period_s": 1e-6}']
    with pytest.raises(ValueError, match="^line 2: RUN_END at 0.002 ms"):
        report_from_trace(lines, 2)
    assert len(report_from_trace(lines).aggregates["busy"]) == 3


# A Latin-1 0xE9 byte in a comment: not UTF-8.
LATIN1_CNF = b"c caf\xe9\np cnf 2 2\n1 0\n-1 2 0\n"


def test_cli_solve_reads_dimacs_bytes(tmp_path, capsys):
    f = tmp_path / "latin1.cnf"
    f.write_bytes(LATIN1_CNF)
    assert main(["solve", str(f)]) == 10  # as a scenario's cnf file is read
    assert "s SATISFIABLE" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["report", "hos", "run"])
def test_cli_names_a_file_that_is_not_utf8(command, tmp_path, capsys):
    f = tmp_path / "input"
    f.write_bytes(b'{"caf\xe9": 1}\n')
    assert main([command, str(f)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"flexsat: error: {f}: 'utf-8' codec can't decode byte 0xe9")
    assert err.count("\n") == 1


def test_cli_hos(tmp_path, capsys):
    f = tmp_path / "times.json"
    f.write_text(json.dumps([
        {"job": 1, "runtime": 10.0, "arrival": 0.0},
        {"job": 2, "runtime": 30.0, "arrival": 0.0},
        {"job": 3, "runtime": 20.0, "arrival": 0.0},
    ]))
    out_json = tmp_path / "hos.json"
    rc = main(["hos", str(f), "--timeout", "300", "--out", str(out_json)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "job 1: response=10.000" in out
    assert "job 3: response=30.000" in out
    assert "job 2: response=60.000" in out
    assert "mean_response: 33.333" in out
    body = json.loads(out_json.read_text())
    assert body["responses"]["2"] == 60.0 or body["responses"][2] == 60.0
    assert body["mean_response"] == pytest.approx(100.0 / 3)


@pytest.mark.parametrize("entry", [
    {"job": 2, "runtime": "5"},
    {"job": 2, "runtime": 5.0, "arrival": True},
    {"job": 2, "runtime": -1.0},
    {"job": 2, "runtime": float("nan")},
    {"job": 2, "runtime": 5.0, "arrival": float("inf")},
    {"job": 2, "runtime": 5.0, "arrival": -0.5},
    {"job": "2", "runtime": 5.0},
    {"job": 2.0, "runtime": 5.0},
    {"job": True, "runtime": 5.0},
    {"runtime": 5.0},
    [2, 5.0],
])
def test_cli_hos_rejects_bad_entry(entry, tmp_path, capsys):
    # entries are checked as written: an int job, a runtime that is null or
    # a finite number >= 0, an arrival that is a finite number >= 0
    f = tmp_path / "times.json"
    f.write_text(json.dumps([{"job": 1, "runtime": None, "arrival": 1}, entry]))
    assert main(["hos", str(f)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"flexsat: error: {f}: ") and "entry 1" in err


@pytest.mark.parametrize("limit", ["-5", "nan", "0", "inf"])
def test_cli_hos_rejects_bad_timeout(limit, tmp_path, capsys):
    f = tmp_path / "times.json"
    f.write_text(json.dumps([{"job": 1, "runtime": None}, {"job": 2, "runtime": 4}]))
    assert main(["hos", str(f), "--timeout", limit]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"flexsat: error: --timeout {float(limit)!r}"
                            " is not a positive finite number\n")


def test_hos_rejects_repeated_job_id(tmp_path, capsys):
    # Shortest-first over three entries would give 4.000, not the 5.500 of
    # two merged jobs: a repeated id is refused rather than folded.
    entries = [{"job": 1, "runtime": 5}, {"job": 1, "runtime": 1}, {"job": 2, "runtime": 2}]
    with pytest.raises(ValueError, match="job id 1 is given twice"):
        hos_baseline([(e["job"], e["runtime"], 0.0) for e in entries], 300.0)
    f = tmp_path / "times.json"
    f.write_text(json.dumps(entries))
    assert main(["hos", str(f)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"flexsat: error: {f}: job id 1 is given twice\n"


def test_cli_hos_accepts_null_runtime_and_integral_times(tmp_path, capsys):
    f = tmp_path / "times.json"
    f.write_text(json.dumps([{"job": 1, "runtime": None, "arrival": 1},
                             {"job": 2, "runtime": 4}]))
    assert main(["hos", str(f), "--timeout", "10"]) == 0
    out = capsys.readouterr().out
    assert "job 2: response=4.000" in out and "job 1: response=14.000" in out

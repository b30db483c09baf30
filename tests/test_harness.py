"""Harness layer: metrics, reports, scenarios, and the command line."""
import json

import pytest

from flexsat.formula import check_model, parse_dimacs
from flexsat.harness.cli import main
from flexsat.harness.metrics import hos_baseline, par2, speedups
from flexsat.harness.report import (RunReport, parse_detail, parse_trace_line,
                                    report_from_trace)
from flexsat.harness.scenario import ScenarioError, parse_scenario

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

TRACE = """\
0.000 -1 CONFIG - {"budget": 7, "num_pes": 8}
0.100 0 INTRO 1 pri=0.5 kind=cnf
0.200 0 REQUEST 1 x=0
0.450 3 PLACED 1 x=0
0.500 3 START 1 x=0 mode=fresh
100.000 -1 TICK - busy=1 active=1
100.200 3 VOLUME 1 v=3 epoch=1 demand=4
150.000 3 SHARE 1 epoch=1 u=3 lits=120
200.000 -1 TICK - busy=3 active=1
250.000 4 START 1 x=1 mode=fresh
260.000 4 SUSPEND 1 x=1
270.000 4 START 1 x=1 mode=resume
300.000 0 DONE 1 verdict=SAT response_ms=299.9 model=ok
this line is noise and must be skipped
310.000 -1 STATS - slots=4 conflicts=100 learned=90 exported=40 imported=10
320.000 -1 RUN_END - reason=all-done
""".splitlines()


def test_parse_trace_line():
    assert parse_trace_line("1.500 3 START 7 x=0 mode=fresh") == \
        (1.5, 3, "START", 7, "x=0 mode=fresh")
    assert parse_trace_line("9.000 -1 TICK - busy=1 active=1")[3] is None
    assert parse_trace_line("nonsense") is None
    assert parse_trace_line("a b c d") is None


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
    assert job["fresh_starts"] == 2
    assert job["max_volume"] == 3
    assert job["shares"] == 1
    assert job["verdict"] == "SAT"
    assert job["response_ms"] == 299.9
    assert job["model"] == "ok"

    agg = rep.aggregates
    assert agg["solved"] == 1 and agg["unsolved"] == 0
    assert agg["makespan_ms"] == 320.0
    assert agg["end_reason"] == "all-done"
    assert agg["busy"] == [[100.0, 1, 1], [200.0, 3, 1]]
    assert agg["busy_max"] == 3
    assert agg["fresh_starts"] == 2 and agg["volume_total"] == 3
    assert agg["over_transfer"] == pytest.approx(2 / 3)
    assert agg["shares"] == 1 and agg["share_lits_mean"] == 120.0
    assert rep.solver_totals["conflicts"] == 100
    assert rep.config["budget"] == 7


def test_report_json_roundtrip():
    rep = report_from_trace(TRACE)
    back = RunReport.from_json(rep.to_json(include_trace=True))
    assert back.config == rep.config
    assert back.jobs == rep.jobs
    assert back.aggregates == rep.aggregates
    assert back.solver_totals == rep.solver_totals
    assert back.trace == rep.trace
    assert back.models == {}  # deliberately not serialized


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
     "line 1: need at least one worker"),
    ('{"type": "job", "synthetic": 1.0}\n{"type": "config", "alpha": "x"}',
     "line 2: '<=' not supported"),
])
def test_parse_scenario_errors(text, msg, tmp_path):
    with pytest.raises(ScenarioError, match=msg):
        parse_scenario(text, base_dir=str(tmp_path))


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


def test_cli_solve_unsat(tmp_path, capsys):
    f = tmp_path / "unsat.cnf"
    f.write_text(UNSAT_CNF)
    rc = main(["solve", str(f), "--pes", "4"])
    assert rc == 20
    assert "s UNSATISFIABLE" in capsys.readouterr().out


def test_cli_solve_bad_alpha(tmp_path, capsys):
    f = tmp_path / "sat.cnf"
    f.write_text(SAT_CNF)
    rc = main(["solve", str(f), "--alpha", "0.4"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "alpha out of [0.5,1]" in err


def test_cli_unknown_flag(tmp_path, capsys):
    f = tmp_path / "sat.cnf"
    f.write_text(SAT_CNF)
    assert main(["solve", str(f), "--bogus"]) == 1
    assert "flexsat: error" in capsys.readouterr().err


def test_cli_missing_file(capsys):
    assert main(["solve", "/nonexistent/input.cnf"]) == 1
    assert "cannot read" in capsys.readouterr().err


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


def test_cli_report_without_trace(tmp_path, capsys):
    rep = report_from_trace(TRACE)
    f = tmp_path / "no_trace.json"
    f.write_text(rep.to_json(include_trace=False))
    assert main(["report", str(f)]) == 1
    assert "no embedded trace" in capsys.readouterr().err


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

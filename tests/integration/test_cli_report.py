"""``python -m repro``: one report per command.

Every subcommand returns one ``Report`` that ``main`` renders once: stdout
carries the text tables or exactly one JSON document, notes on side files
and failure lines go to stderr, and the exit code is 1 exactly when there
are failures (2 for a usage error).
"""

from __future__ import annotations

import json
import os
from types import SimpleNamespace

import pytest

import repro.__main__ as cli
from repro.__main__ import main
from repro.common.errors import StallError
from repro.matrix import MATRICES, matrix_cells
from repro.runtime import SMALL_SCALE, print_rows
from repro.runtime.deployment import RunLoop
from repro.runtime.experiments import figure_openloop
from repro.workload.openloop import OpenLoopConfig


def _quiet(capsys, argv: list[str]) -> None:
    """Run a setup command, asserting success, and drop its output."""
    assert main(argv) == 0
    capsys.readouterr()


def _live_case(tmp_path, capsys):
    trace, health = tmp_path / "t.jsonl", tmp_path / "h.jsonl"
    return (["live", "--backend", "live", "--protocol", "pbft",
             "--clients", "4", "--requests", "40", "--trace", str(trace),
             "--health-interval", "0.005", "--health-out", str(health)],
            [trace, health])


def _openloop_case(tmp_path, capsys):
    return (["openloop", "--rate", "4000", "--max-in-flight", "8",
             "--duration", "0.05"], [])


def _matrix_run_case(tmp_path, capsys):
    # Named twice: the duplicate cells collapse with a note on stderr.
    csv = tmp_path / "c.csv"
    return (["matrix", "run", "faults", "faults", "--results",
             str(tmp_path / "cells"), "--csv", str(csv)], [csv])


def _matrix_collate_case(tmp_path, capsys):
    cells, csv = tmp_path / "cells", tmp_path / "c.csv"
    _quiet(capsys, ["matrix", "run", "--protocols", "pbft", "--clients", "4",
                    "--results", str(cells)])
    return (["matrix", "collate", "--results", str(cells), "--csv", str(csv)],
            [csv])


def _trace_analyze_case(tmp_path, capsys):
    trace, summary = tmp_path / "t.jsonl", tmp_path / "s.json"
    _quiet(capsys, ["live", "--protocol", "pbft", "--clients", "4",
                    "--requests", "40", "--trace", str(trace)])
    return (["trace", "analyze", str(trace), "--out", str(summary),
             "--min-completeness", "0.5"], [summary])


@pytest.mark.timeout(120)
@pytest.mark.parametrize("case", [
    _live_case, _openloop_case, _matrix_run_case, _matrix_collate_case,
    _trace_analyze_case,
], ids=["live", "openloop", "matrix-run", "matrix-collate", "trace-analyze"])
def test_json_report_is_all_of_stdout_with_every_side_file(case, tmp_path,
                                                           capsys):
    argv, files = case(tmp_path, capsys)
    assert main([*argv, "--report", "json"]) == 0
    captured = capsys.readouterr()
    json.loads(captured.out)
    for path in files:
        assert path.exists()
        assert any(line.startswith(f"{what} written: {path}")
                   for line in captured.err.splitlines()
                   for what in ("trace", "health samples", "curves",
                                "span summary")), captured.err


@pytest.mark.timeout(60)
def test_run_prints_the_table_of_the_selected_protocol(capsys):
    # 'flexibft' is the dash-less spelling of flexi-bft.
    assert main(["run", "figure6_batching", "--protocols", "flexibft"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "== figure6_batching (small scale) =="
    header = lines[2].split()
    assert header[0] == "protocol"
    assert {line.split()[0] for line in lines[3:]} == {"flexi-bft"}


def test_an_unknown_protocol_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["live", "--protocol", "bogus-bft"])
    assert exit_info.value.code == 2
    assert ("unknown protocol 'bogus-bft'; known protocols: "
            in capsys.readouterr().err)


@pytest.mark.parametrize("argv", [
    [], ["matrix"], ["trace"],
    ["live", "--backend", "bogus"],
    ["live", "--backend", "sim"],
    ["diag", "--backend", "sim"],
    ["openloop", "--segments", "0.2:0.5,0.2"],
])
def test_usage_errors_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "usage: repro" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["live", "--health-out", "h.jsonl"], "--health-out needs"),
    (["trace", "analyze", "missing.jsonl"], "no such file"),
    (["matrix", "run"], "nothing to run"),
    (["matrix", "run", "bogus"], "unknown matrix 'bogus'"),
])
def test_refused_invocations_exit_with_their_reason(argv, message, tmp_path,
                                                    monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit, match=message):
        main(argv)
    assert os.listdir(tmp_path) == []


def test_matrix_list_names_every_cell(capsys):
    assert main(["matrix", "list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    headers = [line.split()[0] for line in lines if not line.startswith(" ")]
    assert headers == sorted(MATRICES)
    assert len(lines) == len(MATRICES) + sum(len(matrix_cells(name))
                                             for name in MATRICES)


@pytest.mark.parametrize("report", ["table", "json"])
def test_collating_an_empty_directory_fails_on_stderr(report, tmp_path,
                                                      capsys):
    assert main(["matrix", "collate", "--results", str(tmp_path),
                 "--csv", str(tmp_path / "c.csv"), "--report", report]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"no cell results under {str(tmp_path)!r}"]
    assert os.listdir(tmp_path) == []
    if report == "json":
        assert json.loads(captured.out) == {"axis": "clients", "series": []}
    else:
        assert captured.out == ""


def test_openloop_text_is_the_table_of_the_figure_rows(capsys):
    assert main(["openloop", "--rate", "4000", "--max-in-flight", "8",
                 "--deadline-ms", "25", "--duration", "0.05"]) == 0
    text = capsys.readouterr().out
    rows = figure_openloop(SMALL_SCALE, OpenLoopConfig(
        arrival_rate_tx_s=4_000.0, max_in_flight=8, deadline_us=25_000.0,
        duration_s=0.05))
    print_rows("open loop: flexi-bft @ 4000 tx/s (poisson, 1,000,000 users)",
               rows)
    assert text == capsys.readouterr().out


_STALL = StallError(
    "live run stalled: no completed request for 1.0s; suspect r1 (idle)",
    suspect="r1", diagnostics={"reason": "stall", "suspect": "r1",
                               "aggregate": {"replicas": 4, "active": 3,
                                             "recovering": 1}})


def _stall(self, **_):
    raise _STALL


@pytest.mark.timeout(60)
def test_a_stalled_diag_probe_writes_the_watchdog_bundle(tmp_path, capsys,
                                                         monkeypatch):
    monkeypatch.setattr(RunLoop, "run_until_target", _stall)
    bundle, trace = tmp_path / "diag.json", tmp_path / "t.jsonl"
    assert main(["diag", "--protocol", "pbft", "--out", str(bundle),
                 "--trace", str(trace)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "replicas: 4 (active: 3, recovering: 1)\n"
    err = captured.err.splitlines()
    assert f"diagnostics bundle written: {bundle}" in err
    assert err[-2:] == [f"probe run stalled: {_STALL}", "suspect replica: r1"]
    assert json.loads(bundle.read_text()) == _STALL.diagnostics
    assert trace.exists()


@pytest.mark.timeout(60)
def test_a_stalled_live_run_still_prints_one_json_document(tmp_path, capsys,
                                                           monkeypatch):
    monkeypatch.setattr(RunLoop, "run_until_target", _stall)
    bundle = tmp_path / "stall.json"
    assert main(["live", "--protocol", "pbft", "--diag", str(bundle),
                 "--report", "json"]) == 1
    captured = capsys.readouterr()
    assert list(json.loads(captured.out)) == ["title"]
    assert captured.err.splitlines()[-2:] == [
        f"live run STALLED: {_STALL}", "suspect replica: r1"]
    assert bundle.exists()


class _Verifier:
    def __init__(self, deployment):
        self.verified = 3


def _result(completed: int, consensus_safe: bool = True):
    return SimpleNamespace(
        as_row=lambda: {"completed": completed},
        metrics=SimpleNamespace(completed_requests=completed, health=None),
        consensus_safe=consensus_safe, rsm_safe=True)


@pytest.mark.timeout(60)
@pytest.mark.parametrize("result, verifier, failure", [
    (_result(0), False,
     "live run FAILED: no requests completed before the wall-clock cap"),
    (_result(5), False, "live run FAILED: no client reply was verified"),
    (_result(5, consensus_safe=False), True,
     "live run FAILED: unsafe ledger (consensus_safe=False, rsm_safe=True)"),
], ids=["no-completions", "no-verified-reply", "unsafe-ledger"])
def test_each_failed_live_run_exits_1_with_its_line(result, verifier, failure,
                                                     capsys, monkeypatch):
    monkeypatch.setattr(RunLoop, "run_until_target",
                        lambda self, **_: result)
    if verifier:
        monkeypatch.setattr(cli, "ReplyVerifier", _Verifier)
    assert main(["live", "--protocol", "pbft", "--report", "json"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["row"]["completed"] == \
        result.metrics.completed_requests
    assert captured.err.splitlines() == [failure]


def test_assert_resumed_fails_while_a_cell_still_executes(tmp_path, capsys):
    argv = ["matrix", "run", "--protocols", "pbft", "--clients", "4",
            "--results", str(tmp_path), "--assert-resumed"]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        "--assert-resumed: 1 cell(s) executed instead of resuming")
    assert main(argv) == 0

"""Matrix runner integration: resumable results and determinism.

Runs a tiny simulated matrix twice against the same results directory and
pins the resume contract: a second run executes zero cells, a corrupted
result file re-runs exactly that cell, and resumed rows are byte-identical
to executed ones (simulated cells are a pure function of their spec).
"""

from __future__ import annotations

import json
import os
from dataclasses import replace

import pytest

from repro.common.errors import ConfigurationError
from repro.matrix import MatrixRunner, MatrixSpec, load_results
from repro.runtime import SMALL_SCALE


@pytest.fixture
def tiny_cells():
    spec = MatrixSpec(name="tiny", protocols=("minbft", "flexi-bft"),
                      client_counts=(10,),
                      scale=replace(SMALL_SCALE, warmup_batches=1,
                                    measured_batches=3))
    return spec.cells()


def test_second_run_resumes_every_cell(tmp_path, tiny_cells):
    runner = MatrixRunner(results_dir=str(tmp_path))
    first = runner.run(tiny_cells)
    assert first.executed == len(tiny_cells) and first.resumed == 0

    second = MatrixRunner(results_dir=str(tmp_path)).run(tiny_cells)
    assert second.executed == 0
    assert second.resumed == len(tiny_cells)
    # Resumed rows are exactly the executed rows, not re-measurements.
    assert second.rows == first.rows
    # Simulated runs are deterministic: re-running from scratch reproduces
    # the persisted row digests bit for bit.
    fresh = MatrixRunner(results_dir=None).run(tiny_cells)
    assert [o.payload["row_digest"] for o in fresh] == \
        [o.payload["row_digest"] for o in first]


def test_corrupted_result_reruns_only_that_cell(tmp_path, tiny_cells):
    runner = MatrixRunner(results_dir=str(tmp_path))
    first = runner.run(tiny_cells)
    victim = first.outcomes[0]

    # Unparseable JSON: only the victim re-runs.
    with open(victim.path, "w", encoding="utf-8") as handle:
        handle.write("{ not json")
    second = runner.run(tiny_cells)
    executed = [o.cell.content_hash for o in second if not o.resumed]
    assert executed == [victim.cell.content_hash]
    # ... and the rewritten file resumes cleanly afterwards.
    assert runner.run(tiny_cells).executed == 0

    # A payload whose recorded hash disagrees with its cell is corruption
    # too (e.g. a file renamed by hand).
    payload = json.loads(open(victim.path, encoding="utf-8").read())
    payload["cell_hash"] = "0" * 16
    with open(victim.path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    third = runner.run(tiny_cells)
    assert [o.cell.content_hash for o in third if not o.resumed] == \
        [victim.cell.content_hash]


def test_payload_schema_and_load_results(tmp_path, tiny_cells):
    runner = MatrixRunner(results_dir=str(tmp_path))
    result = runner.run(tiny_cells)
    for outcome in result:
        assert os.path.basename(outcome.path) == \
            f"{outcome.cell.content_hash}.json"
        payload = outcome.payload
        assert payload["version"] == 1
        assert payload["cell_hash"] == outcome.cell.content_hash
        assert payload["row"]["cell"] == outcome.cell.content_hash
        assert payload["row_digest"]  # simulated cells carry a digest
        assert payload["wall_seconds"] >= 0
    loaded = load_results(str(tmp_path))
    assert {p["cell_hash"] for p in loaded} == \
        {c.content_hash for c in tiny_cells}


def test_traced_cell_folds_span_summary_into_the_payload_only(tmp_path,
                                                              tiny_cells):
    import dataclasses

    from repro.matrix import Cell, collate_payloads
    from repro.obsv import ObservabilityConfig

    plain_cell = tiny_cells[0]
    traced_cell = Cell(
        spec=dataclasses.replace(plain_cell.spec,
                                 observe=ObservabilityConfig(trace=True)),
        axes=plain_cell.axes, label=plain_cell.label)
    # Observability is excluded from the content hash: a traced cell
    # resumes the untraced cell's persisted result and vice versa.
    assert traced_cell.content_hash == plain_cell.content_hash

    runner = MatrixRunner(results_dir=None)
    (traced,) = runner.run([traced_cell]).outcomes
    (plain,) = runner.run([plain_cell]).outcomes
    # The span aggregates land in the payload, never the row: the traced
    # row (and its determinism digest) is byte-identical to the untraced
    # one.
    assert "span_summary" not in plain.payload
    summary = traced.payload["span_summary"]
    assert summary["span_requests"] > 0
    assert summary["span_total_p99_us"] >= summary["span_total_p50_us"] >= 0
    assert all(not name.startswith("span_") for name in traced.row)
    assert traced.row == plain.row
    assert traced.payload["row_digest"] == plain.payload["row_digest"]

    # Collation merges the payload-only columns back into the curve points.
    (series,) = collate_payloads([traced.payload], axis="clients")
    (point,) = series.points
    assert point.columns["span_requests"] == summary["span_requests"]


#: the columns a crash → restart timeline adds around its first pair.
_SUMMARY_COLUMNS = {"pre_crash_tx_s", "dip_tx_s", "dip_fraction",
                    "post_recovery_tx_s", "time_to_recover_s", "recovered",
                    "transfer_batches"}


@pytest.mark.parametrize("fault", ["crash-restart", "none", "partition"])
def test_fault_cell_runs_its_fixed_horizon(tmp_path, fault):
    from repro.matrix import Cell, FaultPlan
    from repro.protocols.registry import get_protocol
    from repro.recovery import FaultSchedule, heal_at, partition_at

    spec = MatrixSpec(
        name="tiny-faults", protocols=("minbft",), client_counts=(12,),
        fault_plans=(None, FaultPlan("crash-restart", crash_s=0.1,
                                     restart_s=0.2, end_s=0.45)))
    no_fault, crash_restart = spec.cells()
    partition = FaultSchedule((partition_at((2,), 100_000.0, name="cut"),
                               heal_at(200_000.0, name="cut")))
    cell = {
        "none": no_fault,
        "crash-restart": crash_restart,
        "partition": Cell(spec=replace(crash_restart.spec,
                                       fault_schedule=partition),
                          axes={"fault": "partition"}),
    }[fault]
    result = MatrixRunner(results_dir=str(tmp_path)).run([cell])
    row = result.rows[0]
    assert row["fault"] == fault
    assert row["completed_requests"] > 0
    assert row["consensus_safe"] is True
    if fault == "none":
        assert cell.fixed_horizon_us is None
    else:
        # The horizon came from the hashed spec, not a runner-side parameter.
        assert cell.fixed_horizon_us == pytest.approx(450_000.0)

    # A timeline reports how the deployment came through it: every
    # replica's view, frontier and trusted accesses, plus the recovery
    # summary when the schedule crashes and restarts a replica.
    n = get_protocol("minbft").replicas(1)
    per_replica = {f"r{i}_{column}" for i in range(n)
                   for column in ("view", "last_executed", "trusted_accesses")}
    expected = {"none": set(), "partition": per_replica,
                "crash-restart": per_replica | _SUMMARY_COLUMNS}[fault]
    assert (per_replica | _SUMMARY_COLUMNS) & row.keys() == expected
    if fault == "crash-restart":
        assert row["recovered"] is True


def test_json_report_counts_executed_then_resumed_cells(tmp_path, capsys):
    from repro.__main__ import main

    argv = ["matrix", "run", "--protocols", "minbft", "--clients", "10",
            "--results", str(tmp_path), "--report", "json"]
    reports = []
    for _ in range(2):
        assert main(argv) == 0
        reports.append(json.loads(capsys.readouterr().out))
    assert (reports[0]["executed"], reports[0]["resumed"]) == (1, 0)
    assert (reports[1]["executed"], reports[1]["resumed"]) == (0, 1)
    assert reports[1]["series"] == reports[0]["series"]


def test_csv_has_a_header_and_one_row_per_curve_point(tmp_path, capsys):
    # CI's matrix-smoke job uploads this file as the run's figure data.
    import csv

    from repro.__main__ import main

    path = tmp_path / "curves.csv"
    assert main(["matrix", "run", "--protocols", "pbft", "minbft",
                 "--clients", "4", "8", "--results", str(tmp_path / "cells"),
                 "--csv", str(path)]) == 0
    assert f"curves written: {path} (4 points)" in capsys.readouterr().err
    with open(path, newline="", encoding="utf-8") as handle:
        header, *rows = list(csv.reader(handle))
    assert header[:3] == ["protocol", "backend", "clients"]
    assert "throughput_tx_s" in header
    assert [row[:3] for row in rows] == [
        ["minbft", "sim", "4"], ["minbft", "sim", "8"],
        ["pbft", "sim", "4"], ["pbft", "sim", "8"]]
    assert all(len(row) == len(header) for row in rows)


def test_unknown_matrix_name_is_a_configuration_error():
    from repro.matrix import matrix_cells

    with pytest.raises(ConfigurationError):
        matrix_cells("definitely-not-a-matrix")


def _open_loop_cell(backend="sim", segments=()):
    from repro.matrix import Cell
    from repro.runtime.experiments import build_config
    from repro.runtime.spec import DeploymentSpec
    from repro.workload import OpenLoopConfig

    open_loop = OpenLoopConfig(arrival_rate_tx_s=2_000.0, max_in_flight=4,
                               deadline_us=100_000.0, duration_s=0.2,
                               segments=segments)
    config = build_config("flexi-bft", replace(SMALL_SCALE, batch_size=4),
                          num_clients=open_loop.max_in_flight)
    return Cell(spec=DeploymentSpec(config, backend=backend,
                                    open_loop=open_loop))


def test_live_open_loop_cell_runs_the_arrival_engine_reply_verified():
    (outcome,) = MatrixRunner().run([_open_loop_cell(backend="live")])
    assert outcome.row["offered"] > 0
    assert outcome.row["completed_requests"] > 0
    assert outcome.payload["replies_verified"] > 0


def test_segmented_open_loop_cell_resumes_its_segment_rows(tmp_path):
    cell = _open_loop_cell(segments=((0.05, 0.5), (0.05, 2.0)))
    first = MatrixRunner(results_dir=str(tmp_path)).run([cell])
    second = MatrixRunner(results_dir=str(tmp_path)).run([cell])
    assert (first.executed, second.resumed) == (1, 1)
    # A row per rate segment, then the whole-run row, each tied to the cell.
    assert [row["segment"] for row in first.rows] == [0, 1, "all"]
    assert {row["cell"] for row in first.rows} == {cell.content_hash}
    assert second.rows == first.rows

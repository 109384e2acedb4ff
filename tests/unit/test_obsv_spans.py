"""Span reconstruction from a request-keyed trace, and ``repro trace analyze``.

A traced simulated run is written to JSONL and read back through the CLI,
as CI's live-smoke step does with a live-tcp trace: the exit status on
either side of ``--min-completeness``, the printed phase table, and the
JSON summary (``--report json``, ``--out``) that CI uploads.
"""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main
from repro.obsv import ObservabilityConfig, analyze_file, reconstruct_spans
from repro.obsv.spans import PHASES
from repro.runtime.experiments import ExperimentScale, build_config
from repro.runtime.spec import DeploymentSpec

_SCALE = ExperimentScale(
    name="span-unit-test", f=1, num_clients=4, batch_size=4,
    warmup_batches=1, measured_batches=4, worker_threads=4,
    max_sim_seconds=30.0)


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    """A traced pbft run: its retained events and their JSONL export."""
    config = build_config("pbft", _SCALE)
    observe = ObservabilityConfig(trace=True)
    with DeploymentSpec(config, observe=observe).build() as deployment:
        result = deployment.run_until_target(target_requests=40)
        assert result.consensus_safe and result.rsm_safe
        tracer = deployment.tracer
        path = tmp_path_factory.mktemp("trace") / "trace.jsonl"
        assert tracer.write_jsonl(str(path)) == len(tracer)
        assert tracer.dropped == 0
        return tracer.events(), str(path)


def test_complete_spans_have_every_phase(traced_run):
    events, _ = traced_run
    spans = reconstruct_spans(events)
    complete = [span for span in spans if span.complete]
    assert len(complete) >= 40
    for span in complete:
        # The primary's msg.recv and msg.verified of the request carry its
        # id, so arrival and verification join without a causal link.
        assert span.submit_us < span.recv_us <= span.propose_us
        assert span.crypto_us > 0.0 and span.execution_us > 0.0
        for phase in PHASES:
            assert span.phase_us(phase) is not None


def test_trace_ids_come_from_the_request_in_the_payload(traced_run):
    events, _ = traced_run
    keyed = {event.kind for event in events if event.trace_id}
    assert keyed == {"req.submit", "req.reply", "req.complete", "msg.recv",
                     "msg.verified"}
    for event in events:
        if event.kind.startswith("req."):
            assert event.trace_id == event.detail
        elif event.kind in ("msg.recv", "msg.verified"):
            named = event.detail in ("ClientRequest", "Response")
            assert bool(event.trace_id) == named, event


def test_trace_analyze_exit_status_straddles_the_bound(traced_run, capsys):
    _, path = traced_run
    completeness = analyze_file(path).completeness
    assert 0.0 < completeness < 1.0  # the closed loop's in-flight tail

    # repr round-trips the float exactly: the bound itself passes.
    assert main(["trace", "analyze", path,
                 "--min-completeness", repr(completeness)]) == 0
    passed = capsys.readouterr().out
    assert "FAILED" not in passed

    assert main(["trace", "analyze", path,
                 "--min-completeness", repr(completeness + 0.001)]) == 1
    failed = capsys.readouterr().out
    assert "trace analyze FAILED: completeness" in failed


def test_trace_analyze_writes_the_json_summary(traced_run, capsys, tmp_path):
    # CI's span gate uploads this file; the printed report is the same JSON.
    _, path = traced_run
    summary = analyze_file(path)
    out = tmp_path / "span-summary.json"
    assert main(["trace", "analyze", path, "--report", "json",
                 "--out", str(out)]) == 0
    printed, written = capsys.readouterr().out.rsplit("\n", 2)[:2]
    assert written == f"span summary written: {out}"
    report = json.loads(out.read_text())
    assert json.loads(printed) == report
    assert report["completeness"] == round(summary.completeness, 4)
    assert (report["requests"], report["complete"]) == (summary.requests,
                                                        summary.complete)
    assert sorted(report["phases"]) == sorted(PHASES)


def test_trace_analyze_prints_the_phase_table(traced_run, capsys):
    _, path = traced_run
    summary = analyze_file(path)
    assert main(["trace", "analyze", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"requests observed : {summary.requests}"
    assert lines[1].startswith(f"complete spans    : {summary.complete} ")
    assert lines[3].split() == ["phase", "p50", "(us)", "p99", "(us)",
                                "mean", "(us)", "spans"]
    rows = {line.split()[0]: line.split()[1:] for line in lines[4:]}
    assert list(rows) == list(PHASES)
    for phase, (p50, p99, mean, count) in rows.items():
        stats = summary.phases[phase]
        assert float(p50) == pytest.approx(stats["p50"], abs=0.05)
        assert float(p99) >= float(p50)
        assert int(count) == stats["count"]

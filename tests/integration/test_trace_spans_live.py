"""Request span reconstruction over the live TCP backend.

The acceptance bar for the tracing layer: on a traced live-tcp run, at
least 95% of client requests reconstruct into *complete* client→reply
spans — submit, reply and completion all present — and each complete span
decomposes into the four latency phases (network, queueing, crypto,
execution).  No trace context crosses the socket: every event takes its
trace id from the request id in the data it records, so the spans stitch
on the far side of a real serialization boundary exactly as in process.

The incomplete tail is the closed-loop in-flight set: each client has at
most one request outstanding when the run stops, so a high
target-to-client ratio keeps the tail under the gate by construction.

Real time is involved; the ``timeout`` marks turn event-loop hangs into
prompt failures.
"""

from __future__ import annotations

import pytest

from repro.obsv import ObservabilityConfig, analyze_events, analyze_file
from repro.obsv.spans import PHASES, reconstruct_spans
from repro.runtime.experiments import ExperimentScale, build_config
from repro.runtime.spec import DeploymentSpec

_SCALE = ExperimentScale(
    name="trace-span-test", f=1, num_clients=4, batch_size=4,
    warmup_batches=1, measured_batches=4, worker_threads=4,
    max_sim_seconds=30.0)

#: with 4 closed-loop clients and 80 completions, at most 4 spans can be
#: in flight at stop time: worst case 80/84 = 95.2% complete.
_TARGET = 80

_MIN_COMPLETENESS = 0.95


@pytest.mark.timeout(90)
class TestLiveTcpSpans:
    def run_traced(self):
        observe = ObservabilityConfig(trace=True)
        config = build_config("pbft", _SCALE)
        deployment = DeploymentSpec(config, backend="live-tcp",
                                    observe=observe).build()
        try:
            result = deployment.run_until_target(target_requests=_TARGET)
            assert result.consensus_safe and result.rsm_safe
            assert deployment.metrics.completed_count >= _TARGET
            return deployment.tracer
        finally:
            deployment.close()

    def test_95_percent_of_requests_reconstruct_complete_spans(self,
                                                               tmp_path):
        tracer = self.run_traced()
        summary = analyze_events(tracer)
        assert summary.requests >= _TARGET
        assert summary.complete >= _TARGET
        assert summary.completeness >= _MIN_COMPLETENESS, (
            f"only {summary.complete}/{summary.requests} spans complete "
            f"({summary.completeness:.1%}); request ids failed to survive "
            "the socket hop")
        # Every complete span decomposes into all four phases plus total.
        for phase in PHASES:
            stats = summary.phases[phase]
            assert stats["count"] >= summary.complete
            assert stats["p99"] >= stats["p50"] >= 0.0
        # Totals dominate each constituent phase at the median.
        assert summary.phases["total"]["p50"] >= max(
            summary.phases[phase]["p50"]
            for phase in ("network", "queueing", "crypto", "execution"))

        # The JSONL export analyzes identically: what `repro trace analyze`
        # reads off disk is what the in-memory ring said.
        path = tmp_path / "trace.jsonl"
        written = tracer.write_jsonl(str(path))
        assert written == len(tracer)
        exported = analyze_file(str(path))
        assert exported.requests == summary.requests
        assert exported.complete == summary.complete
        assert exported.phases == summary.phases

    def test_spans_stitch_across_the_socket_boundary(self):
        tracer = self.run_traced()
        spans = reconstruct_spans(tracer.events())
        complete = [span for span in spans if span.complete]
        assert complete
        for span in complete:
            # Chronology within one request's lifecycle: the client
            # submitted before a replica received, replied, and the reply
            # certificate completed — four different processes' clocks
            # stitched by one trace id.
            assert span.submit_us <= span.reply_us <= span.complete_us
            if span.recv_us is not None:
                assert span.submit_us <= span.recv_us
            assert span.seq >= 1  # the reply named its committed sequence

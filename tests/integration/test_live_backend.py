"""End-to-end integration of the live asyncio backend.

Runs PBFT (an untrusted 3f+1 protocol) and Flexi-ZZ (a speculative
FlexiTrust protocol with a 2f+1 reply quorum) on the real event loop with
the unchanged replica and client classes, and verifies *every* reply a
client accepts — the signature is genuine HMAC-SHA256, computed and checked
in wall-clock time, so a live run is only meaningful if the replies actually
verify against the replicas' keys.

These tests involve real time; ``pytest-timeout`` (the ``timeout`` marks)
turns an event-loop hang into a prompt failure instead of a stalled run.
"""

from __future__ import annotations

import pytest

from repro.realtime import ReplyVerifier
from repro.runtime.experiments import ExperimentScale, build_config
from repro.runtime.spec import DeploymentSpec

#: small sizing: live runs pay real latency and real crypto, so the
#: integration points are kept to a few dozen requests each.
_SCALE = ExperimentScale(
    name="live-test", f=1, num_clients=6, batch_size=4,
    warmup_batches=1, measured_batches=4, worker_threads=4,
    max_sim_seconds=30.0)


@pytest.mark.timeout(60)
@pytest.mark.parametrize("protocol", ["pbft", "flexi-zz"])
def test_live_backend_end_to_end(protocol):
    config = build_config(protocol, _SCALE)
    with DeploymentSpec(config, backend="live").build() as deployment:
        verifier = ReplyVerifier(deployment)
        target = 20
        result = deployment.run_until_target(target_requests=target)
        assert result.metrics.completed_requests > 0
        # The kernel checks the stop condition after every callback (like
        # Simulator.run), so the run stops exactly at the target instead of
        # overshooting by however many completions land in one poll window.
        assert deployment.metrics.completed_count == target
        assert result.consensus_safe
        assert result.rsm_safe
        # Every completion needed a verified reply quorum; at least
        # quorum-many verified replies per completed request must have
        # arrived (f+1 for pbft, 2f+1 for flexi-zz).
        quorum = deployment.spec.reply_policy(deployment.n,
                                              deployment.f).fast_quorum
        assert verifier.verified >= target * quorum
        # The live clock really ran: wall-clock time elapsed and events fired.
        assert result.sim_time_s > 0
        assert result.events > 0
        assert result.metrics.throughput_tx_s > 0


@pytest.mark.timeout(60)
def test_live_backend_rows_match_simulated_schema():
    """Live rows must be drop-in compatible with simulated analysis paths."""
    config = build_config("minbft", _SCALE)
    with DeploymentSpec(config, backend="live").build() as live:
        live_result = live.run_until_target(target_requests=12)
    with DeploymentSpec(config).build() as simulated:
        simulated_result = simulated.run_until_target(target_requests=12)
    assert set(live_result.as_row()) == set(simulated_result.as_row())


@pytest.mark.timeout(60)
def test_live_deployment_context_manager_closes_loop():
    config = build_config("pbft", _SCALE)
    with DeploymentSpec(config, backend="live").build() as deployment:
        deployment.run_until_target(target_requests=8)
        kernel = deployment.sim
    assert kernel.loop.is_closed()


@pytest.mark.timeout(60)
def test_live_backend_surfaces_receive_errors():
    """A raising receive() must fail the run, not silently partition a node."""
    config = build_config("pbft", _SCALE)
    with DeploymentSpec(config, backend="live").build() as deployment:
        def exploding_receive(envelope):
            raise RuntimeError("injected receive failure")

        deployment.clients[0].receive = exploding_receive
        with pytest.raises(RuntimeError, match="injected receive failure"):
            deployment.run_until_target(target_requests=50)

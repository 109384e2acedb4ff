"""End-to-end integration of the TCP transport and live sharded scenarios.

The TCP backend runs the unchanged protocol stack with every message crossing
a real localhost socket as a versioned binary frame (the canonical wire
codec in :mod:`repro.net.wire`); the live sharded
deployments run multiple consensus groups on one event loop (queue or TCP
transport) driven by cross-shard clients.  Every reply a client accepts is
HMAC-verified, so these tests certify authenticity end to end, not just
liveness.

Real time is involved; the ``timeout`` marks turn event-loop hangs into
prompt failures.
"""

from __future__ import annotations

import pytest

from repro.net.tcp import TcpTransport
from repro.realtime import ReplyVerifier
from repro.runtime.experiments import ExperimentScale, build_config
from repro.runtime.spec import DeploymentSpec

_SCALE = ExperimentScale(
    name="tcp-test", f=1, num_clients=6, batch_size=4,
    warmup_batches=1, measured_batches=4, worker_threads=4,
    max_sim_seconds=30.0)


@pytest.mark.timeout(60)
@pytest.mark.parametrize("protocol", ["pbft", "flexi-bft"])
def test_tcp_backend_end_to_end(protocol):
    config = build_config(protocol, _SCALE)
    with DeploymentSpec(config, backend="live-tcp").build() as deployment:
        verifier = ReplyVerifier(deployment)
        target = 16
        result = deployment.run_until_target(target_requests=target)
        assert deployment.metrics.completed_count == target
        assert result.consensus_safe and result.rsm_safe
        quorum = deployment.spec.reply_policy(deployment.n,
                                              deployment.f).fast_quorum
        assert verifier.verified >= target * quorum
        # Frames really crossed sockets: the transport bound a port and
        # delivered what was sent (minus whatever teardown dropped).
        assert isinstance(deployment.network, TcpTransport)
        assert deployment.network.port is not None
        assert deployment.network.stats.messages_delivered > 0


@pytest.mark.timeout(60)
def test_tcp_rows_match_live_queue_rows_schema():
    config = build_config("minbft", _SCALE)
    rows = []
    for backend in ("live-tcp", "live"):
        with DeploymentSpec(config, backend=backend).build() as deployment:
            rows.append(deployment.run_until_target(target_requests=8).as_row())
    assert set(rows[0]) == set(rows[1])


@pytest.mark.timeout(90)
@pytest.mark.parametrize("backend", ["live", "live-tcp"])
def test_live_sharded_deployment_end_to_end(backend):
    config = build_config("flexi-bft", _SCALE, num_clients=8)
    with DeploymentSpec(config, backend=backend,
                        num_shards=2).build() as deployment:
        verifier = ReplyVerifier(deployment)
        target = 16
        result = deployment.run_until_target(target_requests=target)
        assert deployment.metrics.completed_count >= target
        assert result.consensus_safe and result.rsm_safe
        # Both groups served traffic.
        assert all(count > 0 for count in result.per_shard_completed.values())
        assert verifier.verified > 0
        # Groups are transport-isolated: two distinct transport instances
        # (on TCP, two distinct server ports).
        networks = [group.network for group in deployment.groups]
        assert networks[0] is not networks[1]
        if backend == "live-tcp":
            ports = {network.port for network in networks}
            assert None not in ports and len(ports) == 2


@pytest.mark.timeout(90)
@pytest.mark.parametrize("protocol", ["minbft", "flexi-bft"])
def test_live_recovery_scenario_restarts_a_real_replica(protocol):
    """Crash → restart → state transfer of a real replica task, live.

    The schedule crashes the highest non-primary replica at a wall-clock
    instant and restarts it later; the restarted incarnation replays its
    durable store and state-transfers the missing suffix from its peers over
    the live transport, all while the clients keep offering load.  No
    checkpoint is taken during the run: a stable checkpoint newer than the
    crash would carry the gap as a snapshot, leaving only a suffix that the
    rejoining replica may already commit from live traffic, so how much
    the log fill moves would depend on how fast the host runs the loop.
    """
    from dataclasses import replace

    from repro.common.config import RecoveryConfig
    from repro.protocols.registry import get_protocol
    from repro.recovery import FaultSchedule, crash_at, restart_at

    scale = ExperimentScale(
        name="live-recovery", f=1, num_clients=8, batch_size=4,
        warmup_batches=1, measured_batches=5, worker_threads=4,
        max_sim_seconds=30.0)
    config = build_config(protocol, scale)
    config = config.with_updates(
        recovery=RecoveryConfig(fsync_latency_us=20.0, replay_latency_us=5.0),
        protocol_config=replace(config.protocol_config,
                                checkpoint_interval=10_000))
    crashed = get_protocol(protocol).replicas(scale.f) - 1
    schedule = FaultSchedule((crash_at(crashed, 200_000.0),
                              restart_at(crashed, 350_000.0)))
    with DeploymentSpec(config, fault_schedule=schedule,
                        backend="live").build() as deployment:
        result = deployment.run_for(800_000.0)
        replica = deployment.replica(crashed)
        assert replica.stats.recoveries_completed > 0, (
            f"{protocol} never completed recovery")
        assert result.consensus_safe
        assert result.metrics.completed_requests > 0
        # State transfer really moved batches from peers to the restarted
        # incarnation over the live transport.
        assert replica.stats.log_fill_batches_applied > 0


@pytest.mark.timeout(60)
def test_forged_reply_fails_a_live_run():
    """The verifier turns a forged reply into a loud run failure."""
    from repro.common.errors import InvalidSignature
    from repro.common.types import RequestId
    from repro.crypto.keystore import KeyStore
    from repro.execution.state_machine import OperationResult
    from repro.protocols.messages import Response, with_signature

    config = build_config("pbft", _SCALE)
    with DeploymentSpec(config, backend="live").build() as deployment:
        ReplyVerifier(deployment)
        # The forger claims a replica identity but holds different key
        # material (a different keystore seed), like a byzantine network.
        forger = KeyStore(seed=1234).register(deployment.replica_names[0])
        client = deployment.clients[0]

        def inject_forged():
            forged = Response(
                request_id=RequestId(client=client.name, number=1),
                seq=1, view=0, replica=0,
                result=OperationResult(ok=True),
                result_digest=b"\x00" * 32)
            forged = with_signature(forged, forger.sign(forged.signed_part()))
            deployment.network.send(deployment.replica_names[0],
                                    client.name, forged)

        deployment.sim.schedule(20_000.0, inject_forged)
        with pytest.raises(InvalidSignature):
            deployment.run_until_target(target_requests=200)


@pytest.mark.timeout(60)
def test_repro_live_sharded_cli_reports_json(capsys):
    """``repro live --sharded`` runs two live groups and reports one row."""
    import json

    from repro.__main__ import main

    code = main(["live", "--backend", "live", "--sharded", "--shards", "2",
                 "--clients", "8", "--requests", "40", "--report", "json"])
    out = capsys.readouterr().out
    assert code == 0, out
    report = json.loads(out)
    assert report["row"]["shards"] == 2
    assert report["replies_verified"] > 0

"""Unit tests for the closed-loop client library (reply quorums, resends)."""

import pytest

from repro.common.config import WorkloadConfig
from repro.common.types import RequestId
from repro.crypto import KeyStore
from repro.execution.state_machine import OperationResult
from repro.net import Network, build_topology
from repro.net.network import Envelope
from repro.protocols.messages import CommitAck, ResendRequest, Response
from repro.protocols.registry import ReplyPolicy
from repro.sim import RngRegistry, Simulator
from repro.workload import Client, YcsbWorkload


class SinkRecorder:
    def __init__(self):
        self.submissions = []
        self.completions = []
        self.abandonments = []

    def record_submission(self, client, request_id, submitted_at, operations):
        self.submissions.append(request_id)

    def record_completion(self, client, request_id, submitted_at, completed_at,
                          operations):
        self.completions.append((request_id, completed_at - submitted_at))

    def record_abandonment(self, client, request_id, submitted_at,
                           abandoned_at, operations, reason="stopped"):
        self.abandonments.append((request_id, reason))


class ReplicaStub:
    """Captures everything the client sends to one replica."""

    def __init__(self, name):
        self.name = name
        self.received = []

    def receive(self, envelope):
        self.received.append(envelope.payload)


def build_client(reply_policy, replicas=4, timeout_us=5_000.0):
    sim = Simulator()
    names = [f"replica-{i}" for i in range(replicas)]
    topology = build_topology(names, ["client-0"], ("san-jose",), 50.0)
    network = Network(sim, topology, RngRegistry(1), jitter_fraction=0.0)
    stubs = {name: ReplicaStub(name) for name in names}
    for stub in stubs.values():
        network.register(stub)
    keystore = KeyStore(seed=1)
    config = WorkloadConfig(num_clients=1, records=32)
    workload = YcsbWorkload(config, RngRegistry(1).stream("w"))
    sink = SinkRecorder()
    client = Client(name="client-0", sim=sim, network=network, keystore=keystore,
                    workload=workload, workload_config=config,
                    replica_names=names, reply_policy=reply_policy,
                    sink=sink, request_timeout_us=timeout_us)
    network.register(client)
    return sim, client, stubs, sink


def respond(sim, client, request_id, replicas, digest=b"r", view=0, seq=1):
    for rid in replicas:
        response = Response(request_id=request_id, seq=seq, view=view,
                            replica=rid, result=OperationResult(ok=True),
                            result_digest=digest)
        client.receive(Envelope(source=f"replica-{rid}", destination=client.name,
                                payload=response, sent_at=sim.now,
                                delivered_at=sim.now))


class TestClient:
    def test_first_request_goes_to_primary_only(self):
        sim, client, stubs, _ = build_client(ReplyPolicy(fast_quorum=2))
        client.start()
        sim.run(until=1_000.0)
        assert len(stubs["replica-0"].received) == 1
        assert all(not stubs[f"replica-{i}"].received for i in range(1, 4))

    def test_completion_requires_fast_quorum_of_matching_replies(self):
        sim, client, stubs, sink = build_client(ReplyPolicy(fast_quorum=2))
        client.start()
        sim.run(until=1_000.0)
        request_id = client.outstanding_request.request_id
        respond(sim, client, request_id, [0])
        assert not sink.completions
        respond(sim, client, request_id, [1])
        assert len(sink.completions) == 1

    def test_mismatched_replies_do_not_complete(self):
        sim, client, stubs, sink = build_client(ReplyPolicy(fast_quorum=2))
        client.start()
        sim.run(until=1_000.0)
        request_id = client.outstanding_request.request_id
        respond(sim, client, request_id, [0], digest=b"a")
        respond(sim, client, request_id, [1], digest=b"b")
        assert not sink.completions
        assert client.responses_for_outstanding() == 1

    def test_completion_issues_next_request(self):
        sim, client, stubs, sink = build_client(ReplyPolicy(fast_quorum=2))
        client.start()
        sim.run(until=1_000.0)
        first = client.outstanding_request.request_id
        respond(sim, client, first, [0, 1])
        assert client.outstanding_request.request_id.number == first.number + 1

    def test_timeout_rebroadcasts_request_to_all_replicas(self):
        sim, client, stubs, _ = build_client(ReplyPolicy(fast_quorum=2),
                                             timeout_us=2_000.0)
        client.start()
        sim.run(until=10_000.0)
        for name, stub in stubs.items():
            if name == "replica-0":
                continue
            assert any(isinstance(p, ResendRequest) for p in stub.received)
        assert client.stats.resends >= 1

    def test_slow_path_sends_commit_certificate_and_completes_on_acks(self):
        policy = ReplyPolicy(fast_quorum=4, slow_quorum=3)
        sim, client, stubs, sink = build_client(policy, timeout_us=2_000.0)
        client.start()
        sim.run(until=1_000.0)
        request_id = client.outstanding_request.request_id
        respond(sim, client, request_id, [0, 1, 2])  # 3 of 4: not the full set
        assert not sink.completions
        sim.run(until=4_000.0)  # timeout fires, certificate broadcast
        assert client.stats.certificates_sent == 1
        for rid in (0, 1, 2):
            ack = CommitAck(request_id=request_id, seq=1, view=0, replica=rid,
                            result_digest=b"r")
            client.receive(Envelope(source=f"replica-{rid}", destination=client.name,
                                    payload=ack, sent_at=sim.now,
                                    delivered_at=sim.now))
        assert len(sink.completions) == 1

    def test_stop_halts_the_closed_loop(self):
        sim, client, stubs, sink = build_client(
            ReplyPolicy(fast_quorum=2))
        client.start()
        sim.run(until=1_000.0)
        request_id = client.outstanding_request.request_id
        client.stop()
        # Stopping abandons the in-flight request and reports it: a request
        # dropped at shutdown is not the same as one still in flight.
        assert client.outstanding_request is None
        assert sink.abandonments == [(request_id, "stopped")]
        # A late quorum for the abandoned request is ignored.
        respond(sim, client, request_id, [0, 1])
        assert client.stats.completed == 0
        sim.run(until=5_000.0)
        assert client.stats.submitted == 1


class TestAbandonment:
    """Dropped-at-deadline / dropped-at-shutdown accounting (open-loop lanes)."""

    def test_abandon_with_nothing_outstanding_returns_none(self):
        _, client, _, sink = build_client(ReplyPolicy(fast_quorum=2))
        assert client.abandon_pending() is None
        assert sink.abandonments == []

    def test_abandon_reports_reason_and_frees_the_client(self):
        sim, client, _, sink = build_client(ReplyPolicy(fast_quorum=2))
        client.start()
        sim.run(until=1_000.0)
        request_id = client.outstanding_request.request_id
        assert client.abandon_pending(reason="deadline") == request_id
        assert sink.abandonments == [(request_id, "deadline")]
        assert client.outstanding_request is None
        # The lane is immediately reusable: a fresh submit is accepted and
        # a late quorum for the abandoned request stays ignored.
        from repro.execution.state_machine import Operation

        next_id = client.submit((Operation(action="read", key="user1"),))
        respond(sim, client, request_id, [0, 1])
        assert client.stats.completed == 0
        respond(sim, client, next_id, [0, 1])
        assert client.stats.completed == 1

    def test_metrics_collector_separates_abandoned_from_in_flight(self):
        from repro.runtime.metrics import MetricsCollector

        sim, client, _, _ = build_client(ReplyPolicy(fast_quorum=2))
        collector = MetricsCollector()
        client.sink = collector
        client.start()
        sim.run(until=1_000.0)
        assert collector.in_flight() == 1
        client.stop()
        assert collector.in_flight() == 0
        assert collector.abandoned_count == 1
        assert collector.abandonments[0].reason == "stopped"
        assert collector.completed_count == 0

    def test_sharded_client_stop_abandons_across_shards(self):
        from repro.runtime.experiments import ExperimentScale, build_config
        from repro.runtime.spec import DeploymentSpec

        scale = ExperimentScale(
            name="abandon-test", f=1, num_clients=2, batch_size=4,
            warmup_batches=1, measured_batches=2, worker_threads=4,
            max_sim_seconds=10.0)
        with DeploymentSpec(
                build_config("minbft", scale, num_clients=2 * scale.num_clients),
                num_shards=2).build() as deployment:
            client = deployment.clients[0]
            collector = deployment.metrics
            client.start()
            deployment.sim.run(until=200.0)  # mid-flight: no quorum yet
            assert collector.in_flight() >= 1
            client.stop()
            assert collector.abandoned_count == 1
            assert collector.abandonments[0].reason == "stopped"
            assert collector.abandonments[0].client == client.name
            # Late shard-lane completions must not resurrect the request.
            deployment.sim.run(until=2_000_000.0)
            assert collector.abandoned_count == 1
            assert collector.in_flight() == 0

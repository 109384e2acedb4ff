"""Unit tests for topology and the network transport (including adversary rules)."""

import pytest

from repro.common.errors import ConfigurationError
from repro.net import (
    MessageRule,
    Network,
    PAPER_REGIONS,
    build_topology,
    delay_matching,
    drop_all_from,
    region_latency_us,
)
from repro.sim import RngRegistry, Simulator


class Recorder:
    """Minimal network node that records what it receives."""

    def __init__(self, name):
        self.name = name
        self.received = []

    def receive(self, envelope):
        self.received.append(envelope)


def make_network(replicas=3, regions=("san-jose",), jitter=0.0):
    sim = Simulator()
    names = [f"replica-{i}" for i in range(replicas)]
    topology = build_topology(names, ["client-0"], regions, 100.0)
    network = Network(sim, topology, RngRegistry(5), jitter_fraction=jitter,
                      per_message_wire_us=0.0)
    nodes = {}
    for name in names + ["client-0"]:
        node = Recorder(name)
        nodes[name] = node
        network.register(node)
    return sim, network, nodes


class TestTopology:
    def test_round_robin_region_assignment(self):
        names = [f"replica-{i}" for i in range(4)]
        topology = build_topology(names, [], ("san-jose", "ashburn"), 100.0)
        assert topology.region_of("replica-0") == "san-jose"
        assert topology.region_of("replica-1") == "ashburn"
        assert topology.region_of("replica-2") == "san-jose"

    def test_clients_live_in_first_region(self):
        topology = build_topology(["replica-0"], ["client-0"],
                                  ("sydney", "ashburn"), 100.0)
        assert topology.region_of("client-0") == "sydney"

    def test_intra_region_latency_used_within_region(self):
        topology = build_topology(["replica-0", "replica-1"], [],
                                  ("san-jose",), 123.0)
        assert topology.latency_us("replica-0", "replica-1") == 123.0

    def test_cross_region_latency_is_larger(self):
        topology = build_topology(["replica-0", "replica-1"], [],
                                  ("san-jose", "sydney"), 100.0)
        assert topology.latency_us("replica-0", "replica-1") > 1_000.0

    def test_unknown_region_rejected(self):
        with pytest.raises(ConfigurationError):
            build_topology(["replica-0"], [], ("atlantis",), 100.0)

    def test_region_latency_symmetric(self):
        for a in PAPER_REGIONS:
            for b in PAPER_REGIONS:
                assert region_latency_us(a, b) == region_latency_us(b, a)


class TestNetwork:
    def test_message_delivered_after_latency(self):
        sim, network, nodes = make_network()
        network.send("replica-0", "replica-1", "hello")
        sim.run_until_idle()
        assert len(nodes["replica-1"].received) == 1
        envelope = nodes["replica-1"].received[0]
        assert envelope.payload == "hello"
        assert envelope.delivered_at == pytest.approx(100.0)

    def test_broadcast_excludes_self_by_default(self):
        sim, network, nodes = make_network()
        network.broadcast("replica-0", [f"replica-{i}" for i in range(3)], "ping")
        sim.run_until_idle()
        assert len(nodes["replica-0"].received) == 0
        assert len(nodes["replica-1"].received) == 1
        assert len(nodes["replica-2"].received) == 1

    def test_unknown_destination_dropped(self):
        sim, network, nodes = make_network()
        network.send("replica-0", "ghost", "hello")
        sim.run_until_idle()
        assert network.stats.messages_dropped == 1

    def test_earliest_departure_defers_delivery(self):
        sim, network, nodes = make_network()
        network.send("replica-0", "replica-1", "x", earliest_departure=1_000.0)
        sim.run_until_idle()
        assert nodes["replica-1"].received[0].delivered_at == pytest.approx(1_100.0)

    def test_drop_rule_blocks_matching_messages(self):
        sim, network, nodes = make_network()
        network.add_rule(drop_all_from("byz-silence", ["replica-0"], ["replica-2"]))
        network.send("replica-0", "replica-1", "a")
        network.send("replica-0", "replica-2", "b")
        sim.run_until_idle()
        assert len(nodes["replica-1"].received) == 1
        assert len(nodes["replica-2"].received) == 0
        assert network.stats.messages_dropped == 1

    def test_delay_rule_adds_latency(self):
        sim, network, nodes = make_network()
        rule = delay_matching("slow", ["replica-0"], ["replica-1"],
                              matcher=lambda payload: payload == "slow",
                              extra_delay_us=5_000.0)
        network.add_rule(rule)
        network.send("replica-0", "replica-1", "slow")
        network.send("replica-0", "replica-1", "fast")
        sim.run_until_idle()
        delivered = sorted(e.delivered_at for e in nodes["replica-1"].received)
        assert delivered[0] == pytest.approx(100.0)
        assert delivered[1] == pytest.approx(5_100.0)
        assert rule.hits == 1

    def test_rule_expiry_heals_network(self):
        sim, network, nodes = make_network()
        network.add_rule(MessageRule(name="temp", drop=True, until_us=50.0))
        sim.schedule(100.0, lambda: network.send("replica-0", "replica-1", "late"))
        network.send("replica-0", "replica-1", "early")
        sim.run_until_idle()
        payloads = [e.payload for e in nodes["replica-1"].received]
        assert payloads == ["late"]

    def test_remove_rule(self):
        sim, network, nodes = make_network()
        rule = network.add_rule(MessageRule(name="drop-everything", drop=True))
        network.remove_rule(rule)
        network.send("replica-0", "replica-1", "x")
        sim.run_until_idle()
        assert len(nodes["replica-1"].received) == 1

    def test_every_send_is_one_delivery_event(self):
        # Default jitter and per-message wire cost: each point-to-point send
        # is delivered exactly once, by exactly one kernel event.
        sim = Simulator()
        names = [f"replica-{i}" for i in range(4)]
        network = Network(sim, build_topology(names, [], ("san-jose",), 120.0),
                          RngRegistry(7))
        nodes = [Recorder(name) for name in names]
        for node in nodes:
            network.register(node)
        for i in range(400):
            network.send(names[i % 4], names[(i + 1 + i % 3) % 4], i)
        sim.run_until_idle()
        stats = network.stats
        assert stats.messages_sent == stats.messages_delivered == 400
        assert sum(len(node.received) for node in nodes) == 400
        assert sim.events_processed == 400
        assert stats.messages_dropped == 0

    def test_jitter_bounded_by_fraction(self):
        sim, network, nodes = make_network(jitter=0.1)
        for _ in range(20):
            network.send("replica-0", "replica-1", "x")
        sim.run_until_idle()
        for envelope in nodes["replica-1"].received:
            latency = envelope.delivered_at - envelope.sent_at
            assert 100.0 <= latency <= 110.0

"""The TCP transport carries every destination's frames on one stream.

The transport opens a single outbound connection, whatever the number of
replicas and clients, and its reader routes each frame by the destination
named in the frame's envelope.  These tests pin the three visible sides of
that: a real run connects once, a chunk mixing destinations is routed frame
by frame in order, and the diagnostics snapshot keeps its per-destination
shape.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.net.network import Envelope
from repro.net.tcp import TcpTransport, _FrameReader, _Link
from repro.net.topology import build_topology
from repro.runtime.experiments import ExperimentScale, build_config
from repro.runtime.spec import DeploymentSpec
from repro.sim.rng import RngRegistry

NODES = ("replica-0", "replica-1", "client-0")


class _Kernel:
    """Records what the transport schedules, in scheduling order."""

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self.loop = loop
        self.errors: list = []
        self.scheduled: list = []

    def fail(self, error: BaseException) -> None:
        self.errors.append(error)

    def schedule_at(self, time, callback) -> None:
        self.scheduled.append((time, callback))


class _Node:
    def __init__(self, name: str) -> None:
        self.name = name
        self.received: list = []

    def receive(self, envelope: Envelope) -> None:
        self.received.append(envelope)


class _FakeSocket:
    def get_extra_info(self, name, default=None):
        return ("127.0.0.1", 4242) if name == "peername" else default

    def close(self) -> None:
        pass


@pytest.fixture
def loop():
    loop = asyncio.new_event_loop()
    yield loop
    loop.close()


def test_one_chunk_of_mixed_destinations_reaches_each_node_in_order(loop):
    kernel = _Kernel(loop)
    transport = TcpTransport(kernel, build_topology(list(NODES), [],
                                                    ("san-jose",), 120.0),
                             RngRegistry(1))
    nodes = {name: _Node(name) for name in NODES}
    for node in nodes.values():
        transport.register(node)
    sent = [Envelope("replica-0", NODES[index % 3], f"m{index}",
                     float(index), 100.0 + index)
            for index in range(9)]
    reader = _FrameReader(transport)
    reader.connection_made(_FakeSocket())
    reader.data_received(b"".join(transport.wire_codec.encode_frame(envelope)
                                  for envelope in sent))
    assert not kernel.errors and reader.buffered == 0
    # Each delivery is scheduled at its envelope's injected time, in stream
    # order; running them in that order delivers every frame to its node.
    assert [time for time, _ in kernel.scheduled] == [
        envelope.delivered_at for envelope in sent]
    for _, callback in kernel.scheduled:
        callback()
    for name, node in nodes.items():
        assert node.received == [envelope for envelope in sent
                                 if envelope.destination == name]
    assert transport.stats.messages_delivered == len(sent)


def test_connection_states_keep_a_queued_count_per_destination(loop):
    kernel = _Kernel(loop)
    transport = TcpTransport(kernel, build_topology(list(NODES), [],
                                                    ("san-jose",), 120.0),
                             RngRegistry(1))
    for name in NODES:
        transport.register(_Node(name))
    assert transport.connection_states()["destinations"] == {}
    link = transport._link = _Link(transport)
    for destination in ("replica-1", "client-0", "replica-1"):
        link.pending.append(Envelope("replica-0", destination, "x", 0.0,
                                     1.0))
    states = transport.connection_states()
    assert states["destinations"] == {
        "client-0": {"state": "connecting", "peer": None, "queued": 1},
        "replica-0": {"state": "connecting", "peer": None, "queued": 0},
        "replica-1": {"state": "connecting", "peer": None, "queued": 2},
    }
    assert transport.queued_messages == 3


_SCALE = ExperimentScale(
    name="single-stream", f=1, num_clients=8, batch_size=2,
    warmup_batches=1, measured_batches=4, worker_threads=2,
    max_sim_seconds=20.0)


@pytest.mark.timeout(60)
def test_an_eight_client_run_uses_one_connection():
    config = build_config("pbft", _SCALE)
    with DeploymentSpec(config, backend="live-tcp").build() as deployment:
        deployment.run_until_target(target_requests=16)
        transport = deployment.network
        links = [connection for connection in transport._connections
                 if isinstance(connection, _Link)]
        readers = [connection for connection in transport._connections
                   if isinstance(connection, _FrameReader)]
        assert len(links) == 1 and len(readers) == 1
        states = transport.connection_states()
        assert len(states["accepted_peers"]) == 1
        # Four replicas and eight clients, all reached over the same
        # stream: every destination shows the one peer address.
        destinations = states["destinations"]
        assert len(destinations) == 4 + 8
        assert {state["peer"] for state in destinations.values()} == {
            f"127.0.0.1:{transport.port}"}

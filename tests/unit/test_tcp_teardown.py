"""Regression tests for the TCP transport's teardown and failure paths.

Three hazards, each previously latent:

* ``close()`` that never awaited ``wait_closed()`` leaked sockets/file
  descriptors across repeated deployments in one process;
* a server that failed to bind left every sender waiting to connect until
  the wall-clock cap expired;
* a corrupt length header drove the reader into allocating whatever the
  four length bytes claimed (up to 4 GiB).
"""

from __future__ import annotations

import asyncio
import os
import warnings

import pytest

from repro.common.errors import OversizedFrame, WireError
from repro.net.tcp import TcpTransport
from repro.net.wire import HEADER, WIRE_MAGIC, WIRE_VERSION
from repro.runtime.experiments import ExperimentScale, build_config
from repro.runtime.spec import DeploymentSpec

_SCALE = ExperimentScale(
    name="teardown-test", f=1, num_clients=4, batch_size=2,
    warmup_batches=1, measured_batches=2, worker_threads=2,
    max_sim_seconds=20.0)


def _run_one_deployment() -> None:
    config = build_config("pbft", _SCALE)
    with DeploymentSpec(config, backend="live-tcp").build() as deployment:
        deployment.run_until_target(target_requests=4)


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def _teardown(kernel, transport) -> None:
    """Drive the transport's close tasks the way backend teardown does."""
    tasks = transport.close()
    kernel.cancel_pending()
    if tasks and not kernel.loop.is_closed():
        kernel.loop.run_until_complete(
            asyncio.gather(*tasks, return_exceptions=True))
    kernel.close()


def _run_until_connected(kernel, transport) -> None:
    """Drive the kernel until the transport has bound its port and connected.

    The port is set by the transport's connect task, a plain asyncio task,
    not by a kernel callback, so the task's end pushes the run's stop.
    """
    (connect,) = [task for task in asyncio.all_tasks(kernel.loop)
                  if task.get_name() == "tcp-connect"]
    connect.add_done_callback(lambda _: kernel.request_stop())
    kernel.run_until(max_wall_seconds=5.0)
    assert transport.port is not None


@pytest.mark.timeout(120)
def test_sequential_deployments_do_not_leak_fds():
    # Warm-up: the first run pays one-time allocations (resolver caches,
    # asyncio machinery) that would otherwise read as growth.
    _run_one_deployment()
    baseline = _open_fds()
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        for _ in range(3):
            _run_one_deployment()
    growth = _open_fds() - baseline
    assert growth <= 0, (
        f"file descriptors grew by {growth} across sequential live-tcp "
        "deployments; close() is not releasing sockets")


@pytest.mark.timeout(30)
def test_server_start_failure_fails_the_run_loudly(monkeypatch):
    """A failed bind must wake blocked senders and fail the run once."""
    from repro.realtime.kernel import AsyncioKernel

    async def failing_create_server(*args, **kwargs):
        raise OSError(98, "address already in use (injected)")

    kernel = AsyncioKernel()
    monkeypatch.setattr(kernel.loop, "create_server", failing_create_server)
    try:
        from repro.net.topology import build_topology
        from repro.sim.rng import RngRegistry

        names = ["tt-a", "tt-b"]
        topology = build_topology(names, [], ("san-jose",), 120.0)
        transport = TcpTransport(kernel, topology, RngRegistry(1))

        class _Sink:
            def __init__(self, name): self.name = name
            def receive(self, envelope): pass

        for name in names:
            transport.register(_Sink(name))
        transport.send("tt-a", "tt-b", "payload")
        with pytest.raises(OSError, match="injected"):
            kernel.run_until(lambda: False, max_wall_seconds=5.0)
    finally:
        _teardown(kernel, transport)


@pytest.mark.timeout(30)
def test_oversize_length_header_fails_the_run_with_a_diagnostic():
    """A frame header claiming gigabytes is rejected after 8 bytes."""
    from repro.net.topology import build_topology
    from repro.realtime.kernel import AsyncioKernel
    from repro.sim.rng import RngRegistry

    kernel = AsyncioKernel()
    names = ["os-a", "os-b"]
    topology = build_topology(names, [], ("san-jose",), 120.0)
    transport = TcpTransport(kernel, topology, RngRegistry(1))

    class _Sink:
        def __init__(self, name): self.name = name
        def receive(self, envelope): pass

    for name in names:
        transport.register(_Sink(name))
    attackers = []
    try:
        # A legitimate send spins up the server; wait until it has bound.
        transport.send("os-a", "os-b", "warmup")
        _run_until_connected(kernel, transport)

        async def send_oversize_header():
            _, writer = await asyncio.open_connection("127.0.0.1",
                                                      transport.port)
            # valid magic and version, absurd length: must be rejected from
            # the header alone, never allocated
            attackers.append(writer)
            writer.write(HEADER.pack(WIRE_MAGIC, WIRE_VERSION, 0,
                                     2**32 - 1))
            await writer.drain()

        kernel.loop.create_task(send_oversize_header())
        with pytest.raises(OversizedFrame, match="maximum"):
            kernel.run_until(lambda: False, max_wall_seconds=5.0)
    finally:
        for writer in attackers:
            writer.close()
        _teardown(kernel, transport)


@pytest.mark.timeout(30)
def test_garbage_frame_fails_the_run_with_a_typed_error():
    """Non-protocol bytes on the socket produce a WireError, not a hang."""
    from repro.net.topology import build_topology
    from repro.realtime.kernel import AsyncioKernel
    from repro.sim.rng import RngRegistry

    kernel = AsyncioKernel()
    names = ["gg-a", "gg-b"]
    topology = build_topology(names, [], ("san-jose",), 120.0)
    transport = TcpTransport(kernel, topology, RngRegistry(1))

    class _Sink:
        def __init__(self, name): self.name = name
        def receive(self, envelope): pass

    for name in names:
        transport.register(_Sink(name))
    attackers = []
    try:
        transport.send("gg-a", "gg-b", "warmup")
        _run_until_connected(kernel, transport)

        async def send_garbage():
            _, writer = await asyncio.open_connection("127.0.0.1",
                                                      transport.port)
            attackers.append(writer)
            writer.write(b"GET / HTTP/1.1\r\nHost: localhost\r\n\r\n")
            await writer.drain()

        kernel.loop.create_task(send_garbage())
        with pytest.raises(WireError):
            kernel.run_until(lambda: False, max_wall_seconds=5.0)
    finally:
        for writer in attackers:
            writer.close()
        _teardown(kernel, transport)

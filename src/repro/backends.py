"""Execution backends: one build path for every kernel/transport pair.

A *backend* bundles the two substrate choices a deployment needs to make —
which :class:`~repro.kernel.Kernel` drives the clock and which
:class:`~repro.net.network.Transport` carries messages — behind one named
factory, so the deployment builders (:class:`~repro.runtime.deployment.Deployment`,
:class:`~repro.sharding.deployment.ShardedDeployment`) are written once and
run on any pair.  Three backends ship:

========== =========================== ======================================
name       kernel                      transport
========== =========================== ======================================
``sim``    deterministic ``Simulator`` discrete-event :class:`Network`
``live``   ``AsyncioKernel``           in-process asyncio queues
                                       (:class:`~repro.realtime.network.LiveNetwork`)
``live-tcp`` ``AsyncioKernel``         length-prefixed frames over localhost
                                       TCP sockets (:class:`~repro.net.tcp.TcpTransport`)
========== =========================== ======================================

The backend also owns the *driving* of a run (the simulator drains a heap,
the live kernels poll a real event loop against a wall-clock cap) and the
teardown of whatever the transport allocated, so experiment code never
branches on the backend kind.

Live-backend classes are imported lazily: the ``sim`` backend must work in
any context without pulling in :mod:`repro.realtime`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Union

from .common.errors import ConfigurationError
from .common.types import Micros
from .kernel import Kernel

if TYPE_CHECKING:
    from .net.network import Network
    from .net.topology import Topology
    from .sim.rng import RngRegistry


class Backend:
    """One named kernel/transport pairing plus its run/teardown strategy."""

    #: registry name (``sim`` / ``live`` / ``live-tcp``).
    name: str = ""
    #: True when ``now`` is wall-clock and runs are non-deterministic.
    realtime: bool = False

    # ------------------------------------------------------------- building
    def build_kernel(self) -> Kernel:
        """A fresh kernel for one deployment (or one sharded timeline)."""
        raise NotImplementedError

    def build_network(self, kernel: Kernel, topology: "Topology",
                      rng: "RngRegistry") -> "Network":
        """The transport for one replica group on ``kernel``."""
        return self._network_class()(kernel, topology, rng)

    def _network_class(self) -> type:
        raise NotImplementedError

    # -------------------------------------------------------------- running
    def run(self, kernel: Kernel, until_us: Micros) -> Micros:
        """Drive ``kernel`` until ``kernel.request_stop()`` (or the cap).

        On the simulator the cap ``until_us`` is simulated time; on the live
        backends it is wall-clock — the same clock ``kernel.now`` reports
        either way.
        """
        raise NotImplementedError

    def run_for(self, kernel: Kernel, duration_us: Micros) -> Micros:
        """Drive ``kernel`` for a fixed span of its own clock."""
        raise NotImplementedError

    def teardown(self, kernel: Kernel, networks: List["Network"]) -> None:
        """Release whatever the kernel and transports allocated.

        That includes what they hold of the deployment itself — queued
        callbacks, registered nodes — so a torn-down deployment is freed by
        reference counting, not by a later cyclic collection.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<Backend {self.name}>"


class SimBackend(Backend):
    """Deterministic discrete-event execution (the default)."""

    name = "sim"
    realtime = False

    def build_kernel(self) -> Kernel:
        from .sim.kernel import Simulator

        return Simulator()

    def _network_class(self) -> type:
        from .net.network import Network

        return Network

    def run(self, kernel: Kernel, until_us: Micros) -> Micros:
        return kernel.run(until=until_us)

    def run_for(self, kernel: Kernel, duration_us: Micros) -> Micros:
        # Simulated attack/recovery scenarios historically run to an
        # *absolute* horizon; a fresh deployment's clock starts at zero, so
        # the span and the horizon coincide.
        return kernel.run(until=duration_us)

    def teardown(self, kernel: Kernel, networks: List["Network"]) -> None:
        # No external resources to release, only references: the heap and
        # the node tables are what would keep the deployment in a cycle.
        for network in networks:
            network.close()
        kernel.cancel_pending()


class _AsyncioBackend(Backend):
    """Shared driving/teardown for the real-event-loop backends."""

    realtime = True

    def build_kernel(self) -> Kernel:
        from .realtime.kernel import AsyncioKernel

        return AsyncioKernel()

    def run(self, kernel: Kernel, until_us: Micros) -> Micros:
        return kernel.run_until(max_wall_seconds=until_us / 1_000_000.0)

    def run_for(self, kernel: Kernel, duration_us: Micros) -> Micros:
        return kernel.run_for(duration_us)

    def teardown(self, kernel: Kernel, networks: List["Network"]) -> None:
        import asyncio

        tasks = []
        for network in networks:
            tasks.extend(network.close())
        # Drop any backlog of due events before running the loop again to
        # await the cancelled transport tasks: a run that ended on its
        # wall-clock cap (or an error) must not drain queued protocol
        # callbacks into a deployment that already collected its result.
        kernel.cancel_pending()
        loop = kernel.loop
        if tasks and not loop.is_closed():
            loop.run_until_complete(
                asyncio.gather(*tasks, return_exceptions=True))
        kernel.close()


class LiveBackend(_AsyncioBackend):
    """Real asyncio event loop; messages hop through in-process queues."""

    name = "live"

    def _network_class(self) -> type:
        from .realtime.network import LiveNetwork

        return LiveNetwork


class LiveTcpBackend(_AsyncioBackend):
    """Real asyncio event loop; messages cross localhost TCP sockets.

    Envelopes are framed by the versioned canonical codec in
    :mod:`repro.net.wire`, the transport's one wire format.
    """

    name = "live-tcp"

    def _network_class(self) -> type:
        from .net.tcp import TcpTransport

        return TcpTransport


BACKENDS: dict[str, Backend] = {
    backend.name: backend
    for backend in (SimBackend(), LiveBackend(), LiveTcpBackend())
}

#: accepted spellings for each backend (CLI convenience).
_ALIASES = {
    "simulator": "sim",
    "asyncio": "live",
    "live-asyncio": "live",
    "tcp": "live-tcp",
    "livetcp": "live-tcp",
}


def resolve_backend(backend: Union[str, Backend, None]) -> Backend:
    """Resolve a backend name (or pass a :class:`Backend` through).

    ``None`` resolves to the default ``sim`` backend.  Common alternate
    spellings (``asyncio``, ``tcp``) are accepted.
    """
    if backend is None:
        return BACKENDS["sim"]
    if isinstance(backend, Backend):
        return backend
    name = _ALIASES.get(backend, backend)
    try:
        return BACKENDS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown backend {backend!r}; known backends: "
            f"{', '.join(sorted(BACKENDS))}") from None

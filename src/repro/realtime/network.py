"""Asyncio-queue message transport for the live backend.

:class:`LiveNetwork` subclasses the simulated
:class:`~repro.net.network.Network`, inheriting the whole latency model —
topology distances, jitter, per-message wire time and adversarial
:class:`~repro.net.network.MessageRule` handling — and overrides only *how*
a computed delivery happens: instead of scheduling a simulator event, the
envelope is pushed onto the destination's :class:`asyncio.Queue` and a
per-destination pump task delivers it once its (real) injected latency has
elapsed.

The queue hop is deliberate: it is exactly where a socket transport replaces
``put_nowait`` with a socket write, without touching the replicas, the
latency model, or the deployment builder — :class:`~repro.net.tcp.TcpTransport`
is that replacement (select it with ``backend="live-tcp"``).
"""

from __future__ import annotations

import asyncio
from typing import Dict, List

from ..net.network import Envelope, Network, NetworkNode
from .kernel import AsyncioKernel


class LiveNetwork(Network):
    """Point-to-point transport over asyncio queues with injected latency."""

    def __init__(self, sim: AsyncioKernel, *args, **kwargs) -> None:
        super().__init__(sim, *args, **kwargs)
        self._kernel = sim
        self._queues: Dict[str, asyncio.Queue] = {}
        self._pumps: List[asyncio.Task] = []
        self._closed = False

    # ------------------------------------------------------------- delivery
    def _schedule_delivery(self, target: NetworkNode, envelope: Envelope,
                           context=None) -> None:
        """Enqueue the envelope; the destination's pump delivers it."""
        if self._closed:
            self.stats.messages_dropped += 1
            return
        queue = self._queues.get(envelope.destination)
        if queue is None:
            queue = asyncio.Queue()
            self._queues[envelope.destination] = queue
            self._pumps.append(
                self._kernel.loop.create_task(
                    self._pump(queue), name=f"pump/{envelope.destination}"))
        queue.put_nowait((target, envelope, context))

    async def _pump(self, queue: asyncio.Queue) -> None:
        """Deliver queued envelopes once their injected latency has passed.

        The queue hands each envelope to the kernel scheduler rather than
        sleeping inline, so one long-delayed message (an adversarial delay
        rule) never head-of-line blocks the messages behind it — matching
        the simulator's delivery-time ordering.  *Every* delivery goes
        through the kernel, even already-due ones: a ``receive()`` that
        raises is then recorded by the kernel and re-raised from the run —
        delivered inline it would kill this pump task silently, leaving the
        destination partitioned for the rest of the run.
        """
        while True:
            target, envelope, context = await queue.get()
            delay_us = max(0.0, envelope.delivered_at - self._kernel.now)
            self._kernel.schedule(
                delay_us,
                lambda t=target, e=envelope, c=context: self._deliver(t, e, c))

    # ------------------------------------------------------------ lifecycle
    def close(self) -> List[asyncio.Task]:
        """Cancel the pump tasks; queued envelopes are dropped.

        Returns the cancelled tasks so the deployment can await their
        completion before closing the loop (avoiding destroyed-pending-task
        warnings).
        """
        super().close()
        self._closed = True
        tasks = list(self._pumps)
        for task in tasks:
            task.cancel()
        self._pumps.clear()
        self._queues.clear()
        return tasks

    @property
    def queued_messages(self) -> int:
        """Envelopes sitting in destination queues right now."""
        return sum(queue.qsize() for queue in self._queues.values())

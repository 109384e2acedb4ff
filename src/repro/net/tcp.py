"""TCP message transport: length-prefixed binary frames over localhost sockets.

:class:`TcpTransport` subclasses the simulated :class:`~repro.net.network.Network`,
inheriting the whole latency model — topology distances, jitter, per-message
wire time and adversarial :class:`~repro.net.network.MessageRule` handling —
and overrides only *how* a computed delivery happens: the envelope is framed
by the versioned binary wire codec (:mod:`repro.net.wire`), written to a real
TCP connection on ``127.0.0.1``, read back by the transport's accept loop,
and handed to the kernel scheduler for delivery at its injected
``delivered_at`` time.

This is the ``_schedule_delivery`` seam the in-process
:class:`~repro.realtime.network.LiveNetwork` deliberately left open: the
asyncio-queue ``put_nowait`` becomes a socket write, and nothing above the
seam — replicas, clients, the deployment builder, the latency model —
changes.  What the hop buys is a *real serialization boundary*: every payload
crosses the wire as canonical bytes, so the receiving replica operates on a
decoded copy, exactly as a multi-process deployment would, and framing or
encodability bugs surface here instead of in a future distributed runner.
Because frames are canonical bytes behind a validated header — never
``pickle`` — they are safe to accept from across a machine boundary, and a
corrupt or malicious length header is rejected after eight bytes instead of
driving ``readexactly`` into a multi-gigabyte allocation.

Ordering matches the queue transport: one connection per destination, so
frames to the same destination arrive FIFO, and the kernel's ``(time, seq)``
heap applies the injected latency without head-of-line blocking.  If the
real socket transit ever exceeds the injected latency (tiny topologies on a
loaded machine), delivery happens as soon as the frame arrives — the
transport never delivers *earlier* than the model says.
"""

from __future__ import annotations

import asyncio
from functools import partial
from typing import TYPE_CHECKING, Dict, List, Optional

from ..common.errors import WireError
from .network import Envelope, Network, NetworkNode
from .wire import HEADER_SIZE, MalformedWirePayload, WireCodec

if TYPE_CHECKING:
    from ..realtime.kernel import AsyncioKernel


class TcpTransport(Network):
    """Point-to-point transport over localhost TCP with injected latency."""

    def __init__(self, sim: "AsyncioKernel", *args,
                 wire_codec: Optional[WireCodec] = None, **kwargs) -> None:
        super().__init__(sim, *args, **kwargs)
        self._kernel = sim
        self._codec = wire_codec if wire_codec is not None else WireCodec()
        self._server: Optional[asyncio.AbstractServer] = None
        self._port: Optional[int] = None
        self._server_ready: Optional[asyncio.Event] = None
        self._server_failed = False
        self._queues: Dict[str, asyncio.Queue] = {}
        self._tasks: List[asyncio.Task] = []
        self._writers: List[asyncio.StreamWriter] = []
        self._peer_writers: Dict[str, asyncio.StreamWriter] = {}
        self._server_writers: List[asyncio.StreamWriter] = []
        self._accepted_peers: List[str] = []
        self._closed = False

    # ------------------------------------------------------------- delivery
    def _schedule_delivery(self, target: NetworkNode, envelope: Envelope,
                           context=None) -> None:
        """Frame the envelope and queue it for its destination's connection."""
        if self._closed:
            self.stats.messages_dropped += 1
            return
        queue = self._queues.get(envelope.destination)
        if queue is None:
            loop = self._kernel.loop
            if self._server_ready is None:
                self._server_ready = asyncio.Event()
                self._tasks.append(loop.create_task(
                    self._serve(), name="tcp-server"))
            queue = asyncio.Queue()
            self._queues[envelope.destination] = queue
            self._tasks.append(loop.create_task(
                self._send_loop(envelope.destination, queue),
                name=f"tcp-send/{envelope.destination}"))
        queue.put_nowait((envelope, context))

    async def _serve(self) -> None:
        """Accept loop: bind an ephemeral localhost port, read frames forever."""
        try:
            server = await asyncio.start_server(
                self._handle_connection, host="127.0.0.1", port=0)
        except BaseException as exc:  # noqa: BLE001 — surfaced via the kernel
            # Senders block on _server_ready before connecting; wake them so
            # a failed bind fails the run once and loudly instead of leaving
            # every _send_loop waiting until the wall-clock cap times out.
            self._server_failed = True
            self._server_ready.set()
            self._kernel.fail(exc)
            return
        self._server = server
        self._port = server.sockets[0].getsockname()[1]
        self._server_ready.set()
        async with server:
            await server.serve_forever()

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        """Read length-prefixed frames off one peer connection."""
        self._server_writers.append(writer)
        self._accepted_peers.append(_format_peer(
            writer.get_extra_info("peername")))
        tracer = self._tracer
        if tracer is not None:
            tracer.record("tcp.accept", node="tcp-server",
                          detail=self._accepted_peers[-1])
        try:
            while True:
                try:
                    header = await reader.readexactly(HEADER_SIZE)
                except (asyncio.IncompleteReadError, ConnectionError):
                    return  # peer closed cleanly (teardown)
                # Header validation (magic, version, flags, max frame size)
                # happens before the payload read, so a corrupt length field
                # can never drive readexactly into allocating it.
                flags, length = self._codec.parse_header(header)
                frame = await reader.readexactly(length)
                self._on_frame(flags, frame)
        except asyncio.CancelledError:
            raise
        except WireError as exc:
            # One typed diagnostic naming the peer, then fail the run: an
            # undecodable frame means the connection is desynchronised (or
            # the peer is not speaking our protocol) and nothing after it
            # can be trusted.
            peer = writer.get_extra_info("peername")
            self._kernel.fail(type(exc)(f"invalid frame from {peer}: {exc}"))
        except BaseException as exc:  # noqa: BLE001 — a silent reader death
            # would partition the destination for the rest of the run; fail
            # the run loudly instead, like LiveNetwork's pump does.
            self._kernel.fail(exc)
        finally:
            writer.close()

    def _on_frame(self, flags: int, frame: bytes) -> None:
        """Decode one frame and schedule its delivery at the injected time."""
        if self._closed:
            return
        # The trace context rides in the frame behind FLAG_TRACE, so the
        # causal chain survives the real serialization boundary — exactly
        # what a multi-process deployment will rely on.
        envelope, context = self._codec.decode_payload_traced(frame, flags)
        if not isinstance(envelope, Envelope):
            raise MalformedWirePayload(
                f"frame decoded to {type(envelope).__name__}, expected an "
                "Envelope")
        target = self._nodes.get(envelope.destination)
        if target is None:
            self.stats.messages_dropped += 1
            return
        # schedule_at clamps slightly-past deadlines to "as soon as
        # possible", so a socket transit longer than the injected latency
        # delivers promptly instead of raising.
        self._kernel.schedule_at(envelope.delivered_at,
                                 partial(self._deliver, target, envelope,
                                         context))

    async def _send_loop(self, destination: str, queue: asyncio.Queue) -> None:
        """Write queued envelopes to this destination's connection, in order."""
        try:
            await self._server_ready.wait()
            if self._server_failed:
                return  # the failed bind already failed the run loudly
            _, writer = await asyncio.open_connection("127.0.0.1", self._port)
        except asyncio.CancelledError:
            raise
        except BaseException as exc:  # noqa: BLE001
            self._kernel.fail(exc)
            return
        self._writers.append(writer)
        self._peer_writers[destination] = writer
        tracer = self._tracer
        if tracer is not None:
            tracer.record("tcp.connect", node=destination,
                          detail=_format_peer(
                              writer.get_extra_info("sockname")))
        codec = self._codec
        try:
            while True:
                # One wake-up, one socket write and one drain per burst:
                # everything already queued for this destination goes out
                # together, still one frame per envelope and in queue order.
                envelope, context = await queue.get()
                frames = [codec.encode_frame(envelope, trace=context)]
                while not queue.empty():
                    envelope, context = queue.get_nowait()
                    frames.append(codec.encode_frame(envelope, trace=context))
                writer.write(b"".join(frames))
                await writer.drain()
        except asyncio.CancelledError:
            raise
        except BaseException as exc:  # noqa: BLE001
            self._kernel.fail(exc)

    # ------------------------------------------------------------ lifecycle
    def close(self) -> List[asyncio.Task]:
        """Cancel the server and sender tasks; queued frames are dropped.

        Returns the cancelled tasks — plus one finaliser task that closes
        every connection and the server with ``wait_closed()`` — so the
        deployment can await their completion before closing the loop.
        Without the awaited ``wait_closed`` calls, repeated deployments in
        one process leak sockets/file descriptors and emit
        ``ResourceWarning`` when the half-closed transports are collected.
        """
        super().close()
        self._closed = True
        tasks = list(self._tasks)
        for task in tasks:
            task.cancel()
        writers = list(self._writers) + list(self._server_writers)
        server, self._server = self._server, None
        self._tasks.clear()
        self._queues.clear()
        self._writers.clear()
        self._peer_writers.clear()
        self._server_writers.clear()
        loop = self._kernel.loop
        if (server is not None or writers) and not loop.is_closed():
            tasks.append(loop.create_task(self._finalize(server, writers),
                                          name="tcp-finalize"))
        return tasks

    @staticmethod
    async def _finalize(server: Optional[asyncio.AbstractServer],
                        writers: List[asyncio.StreamWriter]) -> None:
        """Close every connection and the server, waiting for each close."""
        for writer in writers:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass  # the peer may have torn the connection down already
        if server is not None:
            server.close()
            try:
                await server.wait_closed()
            except (ConnectionError, OSError):
                pass

    # ----------------------------------------------------------- inspection
    @property
    def port(self) -> Optional[int]:
        """The localhost port the transport accepts frames on (once bound)."""
        return self._port

    @property
    def wire_codec(self) -> WireCodec:
        """The codec framing every envelope this transport carries."""
        return self._codec

    @property
    def queued_messages(self) -> int:
        """Envelopes waiting for their destination's sender task right now."""
        return sum(queue.qsize() for queue in self._queues.values())

    def connection_states(self) -> dict:
        """Per-peer socket state, with addresses, for diagnostics bundles.

        A destination whose sender task has not finished connecting shows as
        ``connecting`` — exactly the signature of a run wedged on a dead
        accept loop — and a stalled peer shows its backed-up send queue.
        """
        destinations = {}
        for destination, queue in sorted(self._queues.items()):
            writer = self._peer_writers.get(destination)
            if writer is None:
                state = {"state": "connecting", "peer": None}
            else:
                state = {
                    "state": "closing" if writer.is_closing() else "open",
                    "peer": _format_peer(writer.get_extra_info("peername")),
                }
            state["queued"] = queue.qsize()
            destinations[destination] = state
        return {
            "transport": type(self).__name__,
            "port": self._port,
            "destinations": destinations,
            "accepted_peers": list(self._accepted_peers),
        }


def _format_peer(address) -> str:
    """Render a socket address tuple (or None) as ``host:port``."""
    if address is None:
        return "unknown"
    if isinstance(address, tuple) and len(address) >= 2:
        return f"{address[0]}:{address[1]}"
    return str(address)

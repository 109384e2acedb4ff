"""TCP message transport: length-prefixed binary frames over localhost sockets.

:class:`TcpTransport` subclasses the simulated :class:`~repro.net.network.Network`,
inheriting the whole latency model — topology distances, jitter, per-message
wire time and adversarial :class:`~repro.net.network.MessageRule` handling —
and overrides only *how* a computed delivery happens: the envelope is framed
by the versioned binary wire codec (:mod:`repro.net.wire`), written to a real
TCP connection on ``127.0.0.1``, read back by the transport's server, and
handed to the kernel scheduler for delivery at its injected ``delivered_at``
time.

This is the ``_schedule_delivery`` seam the in-process
:class:`~repro.realtime.network.LiveNetwork` deliberately left open: the
asyncio-queue ``put_nowait`` becomes a socket write, and nothing above the
seam — replicas, clients, the deployment builder, the latency model —
changes.  What the hop buys is a *real serialization boundary*: every payload
crosses the wire as bytes, so the receiving replica operates on a decoded
copy, exactly as a multi-process deployment would, and framing or
encodability bugs surface here instead of in a future distributed runner.
Because frames are canonical bytes behind a validated header — never
``pickle`` — they are safe to accept from across a machine boundary.

Both directions are plain :class:`asyncio.Protocol` callbacks; no coroutine
runs per frame.

* **Sending.**  The transport has one outbound stream, its :class:`_Link`:
  the envelopes waiting to be written and, once connected, the socket.
  ``_schedule_delivery`` appends to the link and arms one
  ``loop.call_soon`` flush per loop turn; the flush encodes every waiting
  envelope, whatever its destination, and makes one ``transport.write``.
  The frame's envelope names its destination, so the receiving side routes
  each frame itself.  One stream written in append order keeps the frames
  to every destination FIFO, and the kernel's ``(time, seq)`` heap applies
  the injected latency on the far side without head-of-line blocking.
  A connection per destination would cost a ``send`` and a ``recv``
  syscall per destination per loop turn; the shared stream batches a whole
  turn's traffic into one of each.
* **Receiving.**  Each accepted connection gets a :class:`_FrameReader`,
  whose ``data_received`` validates every header with
  :meth:`~repro.net.wire.WireCodec.parse_header` as soon as its eight bytes
  are in, and hands every complete frame to ``_on_frame`` in arrival order.
  Only the unfinished tail of the stream is kept.  That tail is shorter than
  one header plus one *validated* frame length (at most the codec's maximum
  frame), and each read appends at most one socket chunk to it before it is
  parsed again; nothing is ever allocated from a length field that has not
  passed the header check, so a corrupt or malicious header costs eight
  bytes and a typed error, never a multi-gigabyte buffer.

If the real socket transit ever exceeds the injected latency (tiny
topologies on a loaded machine), delivery happens as soon as the frame
arrives — the transport never delivers *earlier* than the model says.  Nor
much later: asyncio's epoll selector rounds every sleep up to a whole
millisecond, eight times the default 120 µs hop, so the
:class:`~repro.realtime.kernel.AsyncioKernel` polls a delivery due within a
millisecond instead of sleeping towards it.
"""

from __future__ import annotations

import asyncio
from collections import Counter
from functools import partial
from typing import TYPE_CHECKING, List, Optional, Set

from ..common.errors import WireError
from .network import Envelope, Network, NetworkNode
from .wire import HEADER_SIZE, MalformedWirePayload, WireCodec

if TYPE_CHECKING:
    from ..realtime.kernel import AsyncioKernel


class _Connection(asyncio.Protocol):
    """One socket of the transport, registered while it is open."""

    def __init__(self, owner: "TcpTransport") -> None:
        self._owner = owner
        self.transport: Optional[asyncio.Transport] = None
        #: resolved by ``connection_lost``; what :meth:`TcpTransport.close`'s
        #: finaliser awaits so no socket outlives the loop.
        self.closed = owner._kernel.loop.create_future()

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        self._owner._connections.add(self)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        # A peer that went away mid-run (or teardown) ends the connection
        # quietly, as a clean end of stream did for the stream reader.
        self._owner._connections.discard(self)
        if not self.closed.done():
            self.closed.set_result(None)


class _Link(_Connection):
    """The transport's outbound stream and the envelopes waiting for it."""

    def __init__(self, owner: "TcpTransport") -> None:
        super().__init__(owner)
        #: envelopes not yet written, in order.
        self.pending: list = []
        #: a flush is scheduled for this loop turn.
        self.armed = False

    def connection_made(self, transport: asyncio.Transport) -> None:
        super().connection_made(transport)
        owner = self._owner
        tracer = owner._tracer
        if tracer is not None:
            tracer.record("tcp.connect", node="tcp-client",
                          detail=_format_peer(
                              transport.get_extra_info("sockname")))
        if self.pending and not self.armed:
            self.armed = True
            owner._kernel.loop.call_soon(owner._flush)


class _FrameReader(_Connection):
    """Reassembles frames from one accepted connection's byte stream."""

    def __init__(self, owner: "TcpTransport") -> None:
        super().__init__(owner)
        self.peer = "unknown"
        #: the unfinished tail of the stream.
        self._tail = bytearray()
        #: tail length at which parsing can make progress again: a whole
        #: header, or a whole frame once its header has been validated.
        self._needed = HEADER_SIZE
        self._failed = False

    @property
    def buffered(self) -> int:
        """Bytes held for a frame that has not completely arrived."""
        return len(self._tail)

    def connection_made(self, transport: asyncio.Transport) -> None:
        super().connection_made(transport)
        self.peer = _format_peer(transport.get_extra_info("peername"))
        owner = self._owner
        owner._accepted_peers.append(self.peer)
        tracer = owner._tracer
        if tracer is not None:
            tracer.record("tcp.accept", node="tcp-server", detail=self.peer)

    def data_received(self, data: bytes) -> None:
        owner = self._owner
        if self._failed or owner._closed:
            return
        tail = self._tail
        if tail:
            tail += data
            if len(tail) < self._needed:
                return
            data = bytes(tail)
            tail.clear()
        codec = owner._codec
        end = len(data)
        pos = 0
        try:
            while end - pos >= HEADER_SIZE:
                # Header validation (magic, version, flags, max frame size)
                # happens before the payload is waited for, so a corrupt
                # length field is refused instead of buffered towards.
                flags, length = codec.parse_header(
                    data[pos:pos + HEADER_SIZE])
                stop = pos + HEADER_SIZE + length
                if stop > end:
                    self._needed = stop - pos
                    break
                owner._on_frame(flags, data[pos + HEADER_SIZE:stop])
                pos = stop
            else:
                self._needed = HEADER_SIZE
        except WireError as exc:
            # One typed diagnostic naming the peer, then fail the run: an
            # undecodable frame means the connection is desynchronised (or
            # the peer is not speaking our protocol) and nothing after it
            # can be trusted.
            self._fail(type(exc)(f"invalid frame from {self.peer}: {exc}"))
            return
        except Exception as exc:  # noqa: BLE001 — a reader that died
            # silently would partition the destination for the rest of the
            # run; fail the run loudly instead, like LiveNetwork's pump does.
            self._fail(exc)
            return
        if pos < end:
            tail += data[pos:] if pos else data

    def _fail(self, error: BaseException) -> None:
        self._failed = True
        self._tail.clear()
        self._owner._kernel.fail(error)
        if self.transport is not None:
            self.transport.close()


class TcpTransport(Network):
    """Point-to-point transport over localhost TCP with injected latency."""

    def __init__(self, sim: "AsyncioKernel", *args,
                 wire_codec: Optional[WireCodec] = None, **kwargs) -> None:
        super().__init__(sim, *args, **kwargs)
        self._kernel = sim
        self._codec = wire_codec if wire_codec is not None else WireCodec()
        self._server: Optional[asyncio.AbstractServer] = None
        self._port: Optional[int] = None
        self._tasks: List[asyncio.Task] = []
        self._link: Optional[_Link] = None
        self._connections: Set[_Connection] = set()
        self._accepted_peers: List[str] = []
        self._closed = False

    # ------------------------------------------------------------- delivery
    def _schedule_delivery(self, target: NetworkNode,
                           envelope: Envelope) -> None:
        """Queue the envelope on the stream; flush it this loop turn."""
        if self._closed:
            self.stats.messages_dropped += 1
            return
        link = self._link
        if link is None:
            link = self._open_link()
        link.pending.append(envelope)
        if not link.armed and link.transport is not None:
            link.armed = True
            self._kernel.loop.call_soon(self._flush)

    def _flush(self) -> None:
        """Encode everything waiting on the stream; one socket write."""
        if self._closed:
            return
        link = self._link
        link.armed = False
        if not link.pending:
            return
        pending, link.pending = link.pending, []
        codec = self._codec
        try:
            link.transport.write(b"".join([codec.encode_frame(envelope)
                                           for envelope in pending]))
        except Exception as exc:  # noqa: BLE001 — a loop callback's error
            # would vanish into asyncio's handler; fail the run instead.
            self._kernel.fail(exc)

    def _open_link(self) -> _Link:
        """Create the outbound stream and start connecting it."""
        link = self._link = _Link(self)
        self._tasks.append(self._kernel.loop.create_task(
            self._connect(link), name="tcp-connect"))
        return link

    async def _connect(self, link: _Link) -> None:
        """Bind an ephemeral localhost port, then connect ``link`` to it.

        Every accepted connection gets a reader; the link's
        ``connection_made`` flushes what queued while it connected.  A
        failed bind or connect fails the run once and loudly instead of
        leaving the stream connecting until the wall-clock cap.
        """
        loop = self._kernel.loop
        try:
            server = await loop.create_server(
                partial(_FrameReader, self), host="127.0.0.1", port=0)
        except Exception as exc:  # noqa: BLE001 — surfaced via the kernel
            self._kernel.fail(exc)
            return
        self._server = server
        self._port = server.sockets[0].getsockname()[1]
        try:
            await loop.create_connection(lambda: link, "127.0.0.1",
                                         self._port)
        except Exception as exc:  # noqa: BLE001
            self._kernel.fail(exc)

    def _on_frame(self, flags: int, frame: bytes) -> None:
        """Decode one frame and schedule its delivery at the injected time."""
        if self._closed:
            return
        # A frame carries no trace context: the receiving side's msg.recv
        # takes its trace id from the decoded payload's request id, as in
        # process, so a request's trace survives the socket unchanged.
        envelope = self._codec.decode_payload_traced(frame, flags)
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
                                 partial(self._deliver, target, envelope))

    # ------------------------------------------------------------ lifecycle
    def close(self) -> List[asyncio.Task]:
        """Stop sending and accepting; frames not yet written are dropped.

        Returns one finaliser task, for the deployment to await before it
        closes the loop: it waits out the cancelled connect task, aborts
        every socket and waits for each one's ``connection_lost``, then for
        ``server.wait_closed()``.  Without those waits, repeated
        deployments in one process leak sockets and emit
        ``ResourceWarning`` when the transports are collected.
        """
        super().close()
        self._closed = True
        tasks = list(self._tasks)
        for task in tasks:
            task.cancel()
        self._tasks.clear()
        self._link = None
        server, self._server = self._server, None
        loop = self._kernel.loop
        if loop.is_closed() or not (tasks or server is not None
                                    or self._connections):
            return []
        return [loop.create_task(self._finalize(server, tasks),
                                 name="tcp-finalize")]

    async def _finalize(self, server: Optional[asyncio.AbstractServer],
                        tasks: List[asyncio.Task]) -> None:
        """Close the server and every socket, waiting for each close."""
        if server is not None:
            server.close()
        await asyncio.gather(*tasks, return_exceptions=True)
        # A connection accepted while this runs registers itself too.
        while self._connections:
            connections = list(self._connections)
            for connection in connections:
                connection.transport.abort()
            await asyncio.gather(*(connection.closed
                                   for connection in connections))
        if server is not None:
            await server.wait_closed()

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
        """Envelopes waiting for the stream's next flush right now."""
        link = self._link
        return 0 if link is None else len(link.pending)

    def connection_states(self) -> dict:
        """Per-destination socket state, with addresses, for diagnostics.

        Every registered node is reached over the one stream, so each shows
        the stream's state and peer — ``connecting`` while it has not
        connected, exactly the signature of a run wedged on a dead server —
        and the envelopes backed up for it.
        """
        destinations = {}
        link = self._link
        if link is not None:
            transport = link.transport
            if transport is None:
                stream = {"state": "connecting", "peer": None}
            else:
                stream = {
                    "state": "closing" if transport.is_closing() else "open",
                    "peer": _format_peer(transport.get_extra_info("peername")),
                }
            queued = Counter(envelope.destination
                             for envelope in link.pending)
            for destination in sorted(self._nodes):
                destinations[destination] = {**stream,
                                             "queued": queued[destination]}
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

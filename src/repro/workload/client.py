"""Closed-loop client library.

Each client keeps exactly one transaction outstanding (the paper's clients run
in a closed loop, Section 9.2).  The client signs its request, sends it to the
replica it believes is the primary, and waits for the protocol-specific number
of matching replies before issuing the next request:

* ``f + 1`` for Pbft, Pbft-EA, Opbft-ea, MinBFT and Flexi-BFT,
* ``2f + 1`` for Flexi-ZZ,
* all ``n`` replicas for Zyzzyva and MinZZ — whose slow path (client-broadcast
  commit certificate, replica acknowledgements) is also implemented here.

If no quorum arrives before the request timeout, the client re-broadcasts the
request to every replica; replicas answer from their reply cache or push the
request towards the primary, eventually triggering a view change (Sections 5
and 8.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Protocol

from ..common.config import WorkloadConfig
from ..common.errors import ConfigurationError, SimulationError
from ..common.types import Micros, RequestId, ViewNum
from ..crypto.keystore import KeyStore
from ..net.network import Envelope, Transport
from ..protocols.messages import (
    ClientRequest,
    CommitAck,
    CommitCertificate,
    ResendRequest,
    Response,
    sign_in_place,
    signed_part_bytes,
)
from ..protocols.registry import ReplyPolicy
from ..kernel import Kernel, Timer
from .ycsb import YcsbWorkload


class CompletionSink(Protocol):
    """Where clients report completed (and submitted) requests."""

    def record_submission(self, client: str, request_id: RequestId,
                          submitted_at: Micros, operations: int) -> None: ...

    def record_completion(self, client: str, request_id: RequestId,
                          submitted_at: Micros, completed_at: Micros,
                          operations: int) -> None: ...

    def record_abandonment(self, client: str, request_id: RequestId,
                           submitted_at: Micros, abandoned_at: Micros,
                           operations: int, reason: str = "stopped") -> None: ...


@dataclass(slots=True)
class ClientStats:
    """Per-client counters."""

    submitted: int = 0
    completed: int = 0
    resends: int = 0
    certificates_sent: int = 0


@dataclass(slots=True)
class _PendingRequest:
    request: ClientRequest
    submitted_at: Micros
    responses: dict[tuple, dict[int, Response]] = field(default_factory=dict)
    acks: dict[tuple, set[int]] = field(default_factory=dict)
    certificate_sent: bool = False


class Client:
    """One closed-loop client driving the replicated service."""

    def __init__(self, name: str, sim: Kernel, network: Transport,
                 keystore: KeyStore, workload: Optional[YcsbWorkload],
                 workload_config: WorkloadConfig,
                 replica_names: list[str],
                 reply_policy: ReplyPolicy, sink: Optional[CompletionSink] = None,
                 request_timeout_us: Micros = 250_000.0,
                 on_complete: Optional[Callable[[], None]] = None,
                 tracer=None) -> None:
        self.name = name
        self.sim = sim
        self.network = network
        self._tracer = tracer
        self.key = keystore.register(name)
        self.workload = workload
        self.workload_config = workload_config
        self.replica_names = replica_names
        self.n = len(replica_names)
        self.sink = sink
        self.request_timeout_us = request_timeout_us
        #: when set, the client is a lane driven by an external coordinator
        #: (e.g. a cross-shard client): completions are reported through the
        #: callback instead of immediately issuing the next workload request.
        self.on_complete = on_complete
        self.stats = ClientStats()
        self.view: ViewNum = 0
        self.active = True
        self._next_number = 0
        self._pending: Optional[_PendingRequest] = None
        self._timer = Timer(sim, self._on_timeout)
        self._fast_quorum = reply_policy.fast_quorum
        self._slow_quorum = reply_policy.slow_quorum

    # ------------------------------------------------------------ lifecycle
    def start(self, initial_delay_us: Micros = 0.0) -> None:
        """Begin the closed loop after ``initial_delay_us``."""
        if self.workload is None:
            raise ConfigurationError(
                f"client {self.name!r} has no workload: it is driven by an "
                "external coordinator via submit(), not start()")
        self.sim.schedule(initial_delay_us, self._issue_next)

    def stop(self) -> None:
        """Stop issuing new requests; an outstanding request is abandoned.

        The abandonment is reported to the :class:`CompletionSink`, so a
        request dropped at shutdown is distinguishable from one still in
        flight when the run ended.
        """
        self.active = False
        self.abandon_pending(reason="stopped")
        self._timer.cancel()

    def close(self) -> None:
        """The deployment is torn down: let go of every callback.

        Unlike :meth:`stop` nothing is reported — the run is over; this only
        unties the client from its timer and from whatever coordinates it,
        so it is freed as soon as nobody inspects it any more.
        """
        self._timer.close()
        self.on_complete = None

    def abandon_pending(self, reason: str = "abandoned") -> Optional[RequestId]:
        """Drop the outstanding request (if any) and report the abandonment.

        Frees the client to accept a new ``submit`` immediately — open-loop
        lanes use this to enforce per-request deadlines without tearing the
        lane down.  Returns the abandoned request id, or None if the client
        had nothing outstanding.
        """
        pending = self._pending
        if pending is None:
            return None
        self._pending = None
        self._timer.cancel()
        request_id = pending.request.request_id
        tracer = self._tracer
        if tracer is not None:
            tracer.record("req.abandon", node=self.name,
                          detail=str(request_id))
        if self.sink is not None:
            record = getattr(self.sink, "record_abandonment", None)
            if record is not None:
                record(self.name, request_id, pending.submitted_at,
                       self.sim.now, len(pending.request.operations), reason)
        return request_id

    # -------------------------------------------------------------- issuing
    def _issue_next(self) -> None:
        if not self.active:
            return
        operations = tuple(self.workload.next_operations(
            self.workload_config.requests_per_client_message))
        self.submit(operations)

    def submit(self, operations: tuple) -> RequestId:
        """Sign and send one request carrying ``operations`` to the primary."""
        if self._pending is not None:
            raise SimulationError(
                f"client {self.name!r} already has request "
                f"{self._pending.request.request_id} outstanding: the closed "
                "loop submits one request at a time")
        self._next_number += 1
        request_id = RequestId(client=self.name, number=self._next_number)
        request = ClientRequest(request_id=request_id, operations=operations)
        sign_in_place(request, self.key.sign_bytes(signed_part_bytes(request)))
        self._pending = _PendingRequest(request=request, submitted_at=self.sim.now)
        self.stats.submitted += 1
        if self.sink is not None:
            self.sink.record_submission(self.name, request_id, self.sim.now,
                                        len(operations))
        tracer = self._tracer
        if tracer is not None:
            trace_id = str(request_id)
            tracer.record("req.submit", node=self.name, detail=trace_id,
                          trace_id=trace_id)
        self.network.send(self.name, self._primary_name(), request)
        self._timer.restart(self.request_timeout_us)
        return request_id

    def _primary_name(self) -> str:
        return self.replica_names[self.view % self.n]

    # ------------------------------------------------------------ receiving
    def receive(self, envelope: Envelope) -> None:
        """Handle replies and acknowledgements from replicas."""
        payload = envelope.payload
        if isinstance(payload, Response):
            self._on_response(payload)
        elif isinstance(payload, CommitAck):
            self._on_ack(payload)

    def _on_response(self, response: Response) -> None:
        pending = self._pending
        if pending is None or response.request_id != pending.request.request_id:
            return
        group = pending.responses.setdefault(response.match_key(), {})
        group[response.replica] = response
        if len(group) >= self._fast_quorum:
            self.view = max(self.view, response.view)
            self._complete(pending)

    def _on_ack(self, ack: CommitAck) -> None:
        pending = self._pending
        if (pending is None or self._slow_quorum is None
                or ack.request_id != pending.request.request_id):
            return
        group = pending.acks.setdefault(ack.match_key(), set())
        group.add(ack.replica)
        if len(group) >= self._slow_quorum:
            self.view = max(self.view, ack.view)
            self._complete(pending)

    def _complete(self, pending: _PendingRequest) -> None:
        self._pending = None
        self._timer.cancel()
        self.stats.completed += 1
        tracer = self._tracer
        if tracer is not None:
            trace_id = str(pending.request.request_id)
            tracer.record("req.complete", node=self.name, detail=trace_id,
                          trace_id=trace_id)
        if self.sink is not None:
            self.sink.record_completion(
                self.name, pending.request.request_id, pending.submitted_at,
                self.sim.now, len(pending.request.operations))
        if self.on_complete is not None:
            self.on_complete()
        else:
            self._issue_next()

    # -------------------------------------------------------------- timeout
    def _on_timeout(self) -> None:
        pending = self._pending
        if pending is None or not self.active:
            return
        best_key, best_group = self._best_group(pending)
        if (self._slow_quorum is not None and best_group is not None
                and len(best_group) >= self._slow_quorum
                and not pending.certificate_sent):
            # Speculative slow path: turn the partial reply set into a commit
            # certificate and ask every replica to acknowledge it.
            request_id, seq, view, result_digest = best_key
            certificate = CommitCertificate(
                request_id=request_id, seq=seq, view=view,
                result_digest=result_digest,
                responders=tuple(sorted(best_group)))
            pending.certificate_sent = True
            self.stats.certificates_sent += 1
            self.network.broadcast(self.name, self.replica_names, certificate)
        else:
            # Re-broadcast the request: replicas answer from their cache or
            # forward it to the primary (and eventually suspect it).
            self.stats.resends += 1
            self.network.broadcast(self.name, self.replica_names,
                                   ResendRequest(request=pending.request))
        self._timer.restart(self.request_timeout_us)

    def _best_group(self, pending: _PendingRequest):
        best_key, best_group = None, None
        for key, group in pending.responses.items():
            if best_group is None or len(group) > len(best_group):
                best_key, best_group = key, group
        return best_key, best_group

    # ------------------------------------------------------------ inspection
    @property
    def outstanding_request(self) -> Optional[ClientRequest]:
        """The request currently awaiting a reply quorum (if any)."""
        return self._pending.request if self._pending is not None else None

    def responses_for_outstanding(self) -> int:
        """Largest matching reply group for the outstanding request."""
        if self._pending is None:
            return 0
        _, best = self._best_group(self._pending)
        return 0 if best is None else len(best)

"""Shared replica runtime for every consensus protocol in the library.

:class:`BaseReplica` implements everything the protocols have in common —
message delivery and cost accounting, request batching at the primary,
in-order execution, client replies, checkpointing, and a Pbft-style
view-change — so that each protocol module only encodes its *phases* and its
*quorum rules*, which is where the paper's protocols actually differ.

Timing model
------------

A replica charges simulated time in three places:

1. **Inbound verification** — every delivered message occupies one worker for
   its verification cost (channel MAC, digital signature, attestation, batch
   hashing) before its handler runs.
2. **Handler output cost** — signing and MAC'ing the messages the handler
   produces occupies one worker after the handler.
3. **Trusted accesses** — every counter/log operation performed by the handler
   reserves the replica's (serial) trusted device; messages produced by the
   handler do not leave the replica before those reservations complete.

This is exactly the cost structure Section 9.3/9.4 of the paper discusses:
signature work on worker threads, plus trusted-hardware latency on the
critical path of every message that carries an attestation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Callable, Optional

from ..common.config import CryptoCostModel, ProtocolConfig
from ..common.types import FaultKind, Micros, ReplicaId, RequestId, SeqNum, ViewNum
from ..crypto.keystore import KeyStore
from ..crypto.signatures import SigningKey
from ..execution.ledger import ExecutedBatch, Ledger
from ..execution.safety import SafetyMonitor
from ..execution.state_machine import OperationResult, StateMachine
from ..net.network import Envelope, Transport
from ..obsv.trace import request_trace_id
from ..recovery.store import DurableStore
from ..recovery.transfer import StateTransferSession
from ..kernel import Kernel, Timer
from ..sim.resources import SerialDevice, WorkerPool
from ..trusted.component import TrustedComponentHost
from ..crypto.digest import digest
from .messages import (
    Checkpoint,
    CheckpointReply,
    CheckpointRequest,
    ClientRequest,
    Commit,
    CommitAck,
    CommitCertificate,
    LogFill,
    LogFillEntry,
    NewView,
    PrePrepare,
    Prepare,
    PreparedProof,
    RequestBatch,
    ResendRequest,
    Response,
    ViewChange,
    noop_batch,
    reply_to,
    sign_in_place,
    signed_part_bytes,
)

if TYPE_CHECKING:
    from .family import TrustedUsage

@dataclass(frozen=True, slots=True)
class Admission:
    """How a replica admits one message class: a row of :data:`ADMISSION`."""

    #: the method that handles it (None: charged, then dropped).
    handler: Optional[str]
    #: ``(costs, message) ->`` the CPU a worker spends verifying it before
    #: the handler runs, beyond every message's overhead and channel MAC.
    verify_us: Callable[[CryptoCostModel, object], Micros]
    #: a consensus phase: it also pays for its attestation, the low
    #: watermark drops it, and a seq far ahead starts a state transfer.
    phase: bool = False
    #: a recovering replica re-executing history may not sway consensus.
    sent_while_recovering: bool = True


def _one_signature(c: CryptoCostModel, message) -> Micros:
    return c.ds_verify_us


_PHASE = {"phase": True, "sent_while_recovering": False}
_HELD = {"sent_while_recovering": False}

#: every message class a replica admits, by exact class (none has a
#: subclass).  A class missing here pays the overhead and MAC and reaches no
#: handler: no correct peer sends one to a replica.
ADMISSION: dict[type, Admission] = {
    ClientRequest: Admission("on_client_request", _one_signature),
    ResendRequest: Admission("on_resend_request", _one_signature),
    PrePrepare: Admission("on_preprepare", lambda c, m: (
        c.ds_verify_us + c.hash_us * max(1, len(m.batch))), **_PHASE),
    Prepare: Admission("on_prepare", _one_signature, **_PHASE),
    Commit: Admission("on_commit", _one_signature, **_PHASE),
    Checkpoint: Admission("on_checkpoint", _one_signature, **_HELD),
    ViewChange: Admission("on_view_change", lambda c, m: (
        c.ds_verify_us * (1 + len(m.prepared))), **_HELD),
    NewView: Admission("on_new_view", lambda c, m: (
        c.ds_verify_us * (1 + len(m.proposals))), **_HELD),
    CommitCertificate: Admission("on_commit_certificate", lambda c, m: (
        c.ds_verify_us * max(1, len(m.responders)))),
    # A replica sends CommitAcks to clients and is never sent one.
    CommitAck: Admission(None, _one_signature, **_HELD),
    CheckpointRequest: Admission("on_checkpoint_request", _one_signature),
    CheckpointReply: Admission("on_checkpoint_reply", lambda c, m: (
        c.ds_verify_us * (1 + len(m.certificate)) + c.hash_us * 4)),
    LogFill: Admission("on_log_fill", lambda c, m: (
        c.ds_verify_us + c.hash_us * max(1, len(m.entries)))),
}

#: execution-result digests memoised by value across all replicas (every
#: replica of a correct deployment computes the same digest for the same
#: outcome); capped so unbounded distinct results cannot grow it forever.
_RESULT_DIGESTS: dict[tuple, bytes] = {}
_RESULT_DIGESTS_MAX = 8192

#: the simulated CPU price of every primitive a replica charges for.
CRYPTO_COSTS = CryptoCostModel()
#: a replica more than this many checkpoint intervals behind the consensus
#: messages it receives fetches a state transfer instead.
LAG_THRESHOLD_INTERVALS = 4
#: transfer rounds before a recovering replica rejoins best-effort.
MAX_TRANSFER_ROUNDS = 8
#: decided batches per LogFill message (larger transfers take rounds).
LOG_FILL_LIMIT = 200


def quorum(n: int, f: int) -> int:
    """Matching votes that decide among ``n`` replicas tolerating ``f``.

    ``2f + 1`` of ``3f + 1``, so any two quorums share an honest replica;
    ``f + 1`` of ``2f + 1``, because trusted components preclude
    equivocation and quorums need only intersect.
    """
    return 2 * f + 1 if n >= 3 * f + 1 else f + 1


@dataclass
class ReplicaContext:
    """Everything a replica needs from its deployment."""

    sim: Kernel
    network: Transport
    keystore: KeyStore
    protocol_config: ProtocolConfig
    f: int
    n: int
    replica_names: list[str]
    state_machine: StateMachine
    safety: SafetyMonitor
    #: durable storage of this replica seat; survives crash/restart cycles.
    store: DurableStore
    trusted: Optional[TrustedComponentHost] = None
    trusted_device: Optional[SerialDevice] = None
    #: typical one-way replica-to-replica latency; sequential speculative
    #: protocols use it to model the completion of a consensus invocation.
    one_way_latency_us: Micros = 120.0
    #: structured-event tracer; None (the default) keeps every hook site an
    #: allocation-free ``is not None`` check, so simulated digests are
    #: byte-identical with tracing disabled.
    tracer: Optional[object] = None
    #: Figure 5's bar: the trusted use a grafted Pbft replica pays for.
    trusted_usage: Optional["TrustedUsage"] = None


@dataclass(slots=True)
class HandlerOutput:
    """Per-handler accumulator of CPU cost and buffered outbound messages."""

    cpu_us: Micros = 0.0
    outbound: list[tuple[str, object]] = field(default_factory=list)
    signed_objects: set[int] = field(default_factory=set)


@dataclass(slots=True)
class Instance:
    """Per-sequence-number consensus bookkeeping."""

    seq: SeqNum
    view: ViewNum
    batch: Optional[RequestBatch] = None
    batch_digest: Optional[bytes] = None
    preprepare: Optional[PrePrepare] = None
    prepares: dict[ReplicaId, Prepare] = field(default_factory=dict)
    commits: dict[ReplicaId, Commit] = field(default_factory=dict)
    prepared: bool = False
    committed: bool = False
    executed: bool = False
    speculative: bool = False


@dataclass(slots=True)
class ReplicaStats:
    """Counters exposed for experiments and tests."""

    messages_processed: int = 0
    batches_proposed: int = 0
    batches_committed: int = 0
    batches_executed: int = 0
    view_changes_started: int = 0
    view_changes_completed: int = 0
    checkpoints_taken: int = 0
    recoveries_started: int = 0
    recoveries_completed: int = 0
    log_fill_batches_sent: int = 0
    log_fill_batches_applied: int = 0


class BaseReplica:
    """Common machinery for all protocol replicas."""

    #: human-readable protocol name; subclasses override.
    protocol_name = "base"
    #: speculative protocols execute on the proposal itself (Zyzzyva, MinZZ,
    #: Flexi-ZZ); when additionally run in sequential mode, the proposal
    #: window only frees one round-trip after execution — the paper's
    #: ``batch / (phases × RTT)`` bound for sequential consensus (Section 7).
    speculative = False
    #: the price of each primitive, the same for every replica.
    costs = CRYPTO_COSTS

    def __init__(self, replica_id: ReplicaId, ctx: ReplicaContext) -> None:
        self.replica_id = replica_id
        self.ctx = ctx
        self.name = ctx.replica_names[replica_id]
        self.sim = ctx.sim
        self.network = ctx.network
        self.config = ctx.protocol_config
        self.f = ctx.f
        self.n = ctx.n
        self.quorum = quorum(self.n, self.f)
        self.key: SigningKey = ctx.keystore.register(self.name)
        self.state_machine = ctx.state_machine
        self.ledger = Ledger()
        self.safety = ctx.safety
        self.trusted = ctx.trusted
        self.trusted_device = ctx.trusted_device
        self.workers = WorkerPool(ctx.sim, self.config.worker_threads,
                                  name=f"{self.name}/workers")
        self.stats = ReplicaStats()
        self._tracer = ctx.tracer

        # Protocol state.
        self.view: ViewNum = 0
        self.next_seq: SeqNum = 0
        self.instances: dict[SeqNum, Instance] = {}
        self.pending_requests: list[ClientRequest] = []
        #: ids of the requests in ``pending_requests`` — the O(1) duplicate
        #: check for the hot enqueue path.
        self.pending_request_ids: set[RequestId] = set()
        #: requests batched into a proposed-but-not-yet-executed instance; a
        #: client resend arriving in that window must not be batched again
        #: (it would execute twice — exactly-once).
        self.proposed_requests: set[RequestId] = set()
        self.in_flight: set[SeqNum] = set()
        self.reply_cache: dict[RequestId, Response] = {}
        #: most recent reply per client — survives garbage collection, so a
        #: client whose replies were all lost can still learn the outcome of
        #: its latest request long after the checkpoint pruned the caches
        #: (closed-loop clients only ever resend their latest request).
        self.latest_reply: dict[str, Response] = {}
        self.executable: dict[SeqNum, tuple[RequestBatch, ViewNum]] = {}

        # Fault behaviour.
        self.fault_kind = FaultKind.HONEST
        self.active = True
        self.outbound_filter: Optional[Callable[[str, object], bool]] = None

        # Checkpoints.  Votes keep the full signed messages so a stable
        # checkpoint can be served to rejoining replicas with its f+1-vote
        # certificate attached.
        self.checkpoint_votes: dict[SeqNum, dict[ReplicaId, Checkpoint]] = {}

        # View changes.
        self.in_view_change = False
        self.view_change_votes: dict[ViewNum, dict[ReplicaId, ViewChange]] = {}
        self.new_view_sent: set[ViewNum] = set()

        # Timers.
        self.batch_timer = Timer(self.sim, self._on_batch_timeout)
        self.progress_timer = Timer(self.sim, self._on_progress_timeout)
        self.forwarded_requests: set[RequestId] = set()

        # Crash recovery.
        self.store = ctx.store
        self.recovering = False
        self.recovered_at: Optional[Micros] = None
        self._transfer: Optional[StateTransferSession] = None
        self.recovery_timer = Timer(self.sim, self._on_recovery_timeout)
        self._lag_recovery_after: Micros = 0.0

        self._handler: Optional[HandlerOutput] = None

    # ------------------------------------------------------------ identities
    @property
    def is_primary(self) -> bool:
        """Whether this replica leads the current view."""
        return self.primary_of(self.view) == self.replica_id

    def primary_of(self, view: ViewNum) -> ReplicaId:
        """Round-robin primary assignment (``view mod n``)."""
        return view % self.n

    def primary_name(self, view: Optional[ViewNum] = None) -> str:
        """Network name of the primary of ``view`` (default: current view)."""
        return self.ctx.replica_names[self.primary_of(self.view if view is None else view)]

    def replica_names_except_self(self) -> list[str]:
        """Names of all other replicas."""
        return [n for n in self.ctx.replica_names if n != self.name]

    # ----------------------------------------------------------------- health
    def health(self):
        """Snapshot this replica's runtime state, without side effects.

        Everything a stall post-mortem asks about one replica — queue
        depths, view, execution and checkpoint frontiers, trusted-counter
        value, verify-cache hit rate — in one frozen
        :class:`~repro.obsv.health.ReplicaHealth`.  ``verify_hit_rate`` is
        the deployment-wide key store's rate (the store is shared), and
        ``trusted_counter`` is the value of the replica's counter 0 (-1 when
        the protocol runs no trusted component).
        """
        from ..obsv.health import ReplicaHealth

        trusted = self.trusted
        if trusted is None:
            trusted_counter = -1
            trusted_accesses = 0
        else:
            trusted_counter = trusted.counters.value(0)
            trusted_accesses = trusted.stats.total
        return ReplicaHealth(
            name=self.name,
            replica_id=self.replica_id,
            protocol=self.protocol_name,
            active=self.active,
            recovering=self.recovering,
            is_primary=self.is_primary,
            in_view_change=self.in_view_change,
            view=self.view,
            last_executed=self.ledger.last_executed,
            stable_checkpoint=self.ledger.stable_checkpoint,
            checkpoint_lag=self.ledger.last_executed - self.ledger.stable_checkpoint,
            next_seq=self.next_seq,
            pending_requests=len(self.pending_requests),
            executable=len(self.executable),
            instances=len(self.instances),
            in_flight=len(self.in_flight),
            worker_queue=self.workers.queued_jobs,
            busy_workers=self.workers.busy_workers,
            messages_processed=self.stats.messages_processed,
            batches_executed=self.stats.batches_executed,
            view_changes_started=self.stats.view_changes_started,
            checkpoints_taken=self.stats.checkpoints_taken,
            trusted_counter=trusted_counter,
            trusted_accesses=trusted_accesses,
            verify_hit_rate=round(self.ctx.keystore.stats.hit_rate, 4),
        )

    # ------------------------------------------------------------- fault API
    def crash(self) -> None:
        """Stop processing and sending messages (crash fault)."""
        self.fault_kind = FaultKind.CRASHED
        self.active = False
        tracer = self._tracer
        if tracer is not None:
            tracer.record("replica.crash", node=self.name, view=self.view,
                          seq=self.ledger.last_executed)
        # A dead replica's timers must not fire: the seat may be rebuilt and
        # the stale object must stay inert.  Closed, they also stop holding
        # it: once its last in-flight event has drained, a replaced
        # incarnation is freed without waiting for a cyclic collection.
        self._close_timers()

    def close(self) -> None:
        """The deployment is torn down: let go of every deferred callback.

        Timers and queued worker jobs point back at the replica; without
        them it is kept alive only by whoever still inspects it.
        """
        self._close_timers()
        self.workers.close()

    def _close_timers(self) -> None:
        for timer in (self.batch_timer, self.progress_timer,
                      self.recovery_timer):
            timer.close()

    def make_byzantine(self, outbound_filter: Optional[Callable[[str, object], bool]] = None) -> None:
        """Mark the replica byzantine and optionally restrict what it sends.

        ``outbound_filter(destination, message)`` returning False suppresses a
        message.  Attack scenarios use this to model selective sending; more
        elaborate behaviours drive the replica's methods directly.
        """
        self.fault_kind = FaultKind.BYZANTINE
        self.outbound_filter = outbound_filter

    # --------------------------------------------------------------- network
    def receive(self, envelope: Envelope) -> None:
        """Network entry point: charge verification cost, then handle."""
        if not self.active:
            return
        payload = envelope.payload
        cost = self.inbound_verification_cost(payload)
        # partials, not lambdas, throughout the deferred-work paths: a
        # queued job stays a named method with its arguments bound — no
        # closure cell, and the tracers can attribute it to ``_process``.
        self.workers.submit(cost, partial(self._process, payload,
                                          envelope.source, cost))

    def _process(self, payload: object, source: str,
                 cost: Micros = 0.0) -> None:
        if not self.active:
            return
        self.stats.messages_processed += 1
        tracer = self._tracer
        if tracer is not None:
            # The modelled crypto cost the worker charged before this
            # handler ran.
            tracer.record("msg.verified", node=self.name,
                          detail=type(payload).__name__,
                          seq=getattr(payload, "seq", -1), dur_us=cost,
                          trace_id=request_trace_id(payload))
        output = HandlerOutput()
        self._handler = output
        try:
            self.dispatch(payload, source)
        finally:
            self._handler = None
        self._release(output)

    def _release(self, output: HandlerOutput) -> None:
        """Send a finished handler's output once its costs are paid.

        The trusted accesses and the durable write the handler made gate the
        departure; its signing CPU occupies a worker first, if it has any.
        """
        tc_ops = self.trusted.take_pending_accesses() if self.trusted else 0
        durable_at = self.store.take_pending_durable_at()
        if output.cpu_us > 0.0:
            self.workers.submit(output.cpu_us,
                                partial(self._flush, output, tc_ops,
                                        durable_at))
        else:
            self._flush(output, tc_ops, durable_at)

    def _flush(self, output: HandlerOutput, tc_ops: int,
               durable_at: Optional[Micros] = None) -> None:
        if not self.active:
            return  # a deferred flush from before a crash; the seat is dead
        departure = self.sim.now
        if tc_ops and self.trusted_device is not None:
            departure = self.trusted_device.reserve(operations=tc_ops)
        if durable_at is not None:
            # Messages reflecting a decision do not leave the replica before
            # the decision is durable (WAL fsync / checkpoint write).
            departure = max(departure, durable_at)
        for destination, message in output.outbound:
            self.network.send(self.name, destination, message,
                              earliest_departure=departure)

    # -------------------------------------------------------------- dispatch
    def dispatch(self, payload: object, source: str) -> None:
        """Route a message to the handler :data:`ADMISSION` names for it."""
        admission = ADMISSION.get(payload.__class__)
        if admission is None or admission.handler is None:
            return  # a byzantine sender's (a Response, say): dropped
        if admission.phase:
            if self.below_low_watermark(payload.seq):
                return
            lag_limit = (self.ledger.last_executed
                         + LAG_THRESHOLD_INTERVALS * self.config.checkpoint_interval)
            if (not self.recovering and payload.seq > lag_limit
                    and self.sim.now >= self._lag_recovery_after):
                # The consensus frontier ran away from us (e.g. we sat behind
                # a healed partition): fetch a checkpoint and the missing
                # suffix from peers instead of replaying every phase message.
                # The claimed seq is unauthenticated at this point, so
                # triggers are rate-limited: a forged high-seq message costs
                # at most one short transfer round per timeout window.
                self._lag_recovery_after = (self.sim.now
                                            + self.config.request_timeout_us)
                self.begin_recovery()
        getattr(self, admission.handler)(payload, source)

    def below_low_watermark(self, seq: SeqNum) -> bool:
        """``seq`` is covered by a stable checkpoint and executed here, so a
        delayed phase message for it can only resurrect pruned state.  (An
        unexecuted seq passes: it may be how a lagging replica catches up.)"""
        ledger = self.ledger
        return seq <= ledger.stable_checkpoint and seq <= ledger.last_executed

    # ------------------------------------------------------- cost accounting
    def inbound_verification_cost(self, payload: object) -> Micros:
        """CPU time to verify an inbound message before handling it."""
        c = self.costs
        cost = c.message_overhead_us + c.mac_verify_us
        admission = ADMISSION.get(payload.__class__)
        if admission is not None:
            cost += admission.verify_us(c, payload)
            if admission.phase and payload.attestation is not None:
                cost += c.attestation_verify_us
        return cost

    def charge(self, amount: Micros) -> None:
        """Add CPU time to the current handler (signing, hashing, execution)."""
        if self._handler is not None:
            self._handler.cpu_us += amount

    # ---------------------------------------------------------------- output
    def send(self, destination: str, message: object, sign: bool = True) -> None:
        """Queue ``message`` for ``destination``, charging signing + MAC cost."""
        if self._handler is None:
            # Called outside a handler (e.g. timer-driven); create a transient
            # output buffer and flush it immediately.
            output = HandlerOutput()
            self._handler = output
            try:
                self._queue(destination, message, sign, output)
            finally:
                self._handler = None
            self._release(output)
            return
        self._queue(destination, message, sign, self._handler)

    def broadcast(self, message: object, include_self: bool = False,
                  sign: bool = True) -> None:
        """Queue ``message`` for every replica (optionally including self)."""
        for name in self.ctx.replica_names:
            if not include_self and name == self.name:
                continue
            self.send(name, message, sign=sign)

    def _queue(self, destination: str, message: object, sign: bool,
               output: HandlerOutput) -> None:
        if self.outbound_filter is not None and not self.outbound_filter(destination, message):
            return
        if self.recovering:
            admission = ADMISSION.get(message.__class__)
            if admission is not None and not admission.sent_while_recovering:
                return
        if sign and id(message) not in output.signed_objects:
            output.signed_objects.add(id(message))
            output.cpu_us += self.costs.ds_sign_us
        output.cpu_us += self.costs.mac_generate_us
        output.outbound.append((destination, message))

    def signed(self, message):
        """Sign a freshly constructed ``message`` with this replica's key.

        Every call site passes a message literal built in the same
        expression, so the signature is attached in place
        (:func:`~repro.protocols.messages.sign_in_place`) instead of
        cloning; use :func:`~repro.protocols.messages.with_signature` to
        re-sign a message that may be shared.
        """
        signature = self.key.sign_bytes(signed_part_bytes(message))
        return sign_in_place(message, signature)

    # ----------------------------------------------------- client interaction
    def cached_reply(self, request_id: RequestId) -> Optional[Response]:
        """Reply for an already-executed request, if the replica still knows it."""
        response = self.reply_cache.get(request_id)
        if response is not None:
            return response
        latest = self.latest_reply.get(request_id.client)
        if latest is not None and latest.request_id == request_id:
            return latest
        return None

    def superseded(self, request_id: RequestId) -> bool:
        """Whether the client already completed a request numbered at least
        this one.  A stale copy of an older, GC-pruned request must be
        dropped, not enqueued: re-executing it would resurrect an old write
        over a newer one (exactly-once)."""
        latest = self.latest_reply.get(request_id.client)
        return latest is not None and latest.request_id.number >= request_id.number

    def on_client_request(self, request: ClientRequest, source: str) -> None:
        """Default client-request handling: batch at the primary, else forward."""
        cached = self.cached_reply(request.request_id)
        if cached is not None:
            self.send(request.client, cached)
            return
        if self.superseded(request.request_id):
            return
        if self.is_primary and not self.in_view_change:
            self.enqueue_request(request)
        else:
            self.forward_to_primary(request)

    def on_resend_request(self, resend: ResendRequest, source: str) -> None:
        """A client re-broadcast: answer from cache or push towards the primary."""
        request = resend.request
        cached = self.cached_reply(request.request_id)
        if cached is not None:
            self.send(request.client, cached)
            return
        if self.superseded(request.request_id):
            return
        if self.is_primary and not self.in_view_change:
            self.enqueue_request(request)
            return
        self.forward_to_primary(request)
        # The client could not make progress: if the primary keeps ignoring the
        # request we must eventually suspect it (Sections 5 and 8.3).
        self.progress_timer.start(self.config.request_timeout_us)

    def enqueue_request(self, request: ClientRequest) -> None:
        """Add a request to the primary's pending batch."""
        if request.request_id in self.proposed_requests:
            return
        if request.request_id in self.pending_request_ids:
            return
        self.pending_requests.append(request)
        self.pending_request_ids.add(request.request_id)
        self.maybe_propose()

    def forward_to_primary(self, request: ClientRequest) -> None:
        """Forward a client request to the current primary (at most once)."""
        if request.request_id in self.forwarded_requests:
            return
        self.forwarded_requests.add(request.request_id)
        self.send(self.primary_name(), request)

    def maybe_propose(self) -> None:
        """Propose as many batches as the outstanding window allows."""
        if not self.is_primary or self.in_view_change or self.recovering:
            return
        while (self.pending_requests
               and len(self.in_flight) < self.config.max_outstanding
               and len(self.pending_requests) >= self.config.batch_size):
            self._propose_next()
        if (self.pending_requests and not self.in_flight
                and self.config.max_outstanding == 1):
            # A sequential protocol's pipeline is idle: proposing a partial
            # batch now beats waiting for the batch timer (this keeps
            # sequential protocols bound by phase latency, not by the timer).
            self._propose_next()
        if self.pending_requests and len(self.in_flight) < self.config.max_outstanding:
            self.batch_timer.start(self.config.batch_timeout_us)

    def _on_batch_timeout(self) -> None:
        if (self.is_primary and self.pending_requests
                and len(self.in_flight) < self.config.max_outstanding):
            self._propose_next()
        if self.pending_requests:
            self.batch_timer.restart(self.config.batch_timeout_us)

    def _propose_next(self) -> None:
        # Filter at the batching moment, not only at enqueue time: a request
        # that sat in pending_requests across view changes may meanwhile have
        # executed elsewhere (and its reply been GC'd) — re-proposing it
        # would resurrect an old write over a newer one.
        batchable: list[ClientRequest] = []
        consumed = 0
        for request in self.pending_requests:
            consumed += 1
            request_id = request.request_id
            if (request_id in self.proposed_requests
                    or self.superseded(request_id)
                    or self.cached_reply(request_id) is not None):
                continue
            batchable.append(request)
            if len(batchable) >= self.config.batch_size:
                break
        for request in self.pending_requests[:consumed]:
            self.pending_request_ids.discard(request.request_id)
        del self.pending_requests[:consumed]
        if not batchable:
            return
        requests = tuple(batchable)
        self.proposed_requests.update(r.request_id for r in requests)
        batch = RequestBatch(requests=requests)
        self.stats.batches_proposed += 1
        tracer = self._tracer
        if tracer is not None:
            # The digest prefix is the join key between this sequencing
            # event and the batch.execute events downstream — span
            # reconstruction chains request id -> seq -> digest through it.
            tracer.record("batch.propose", node=self.name,
                          detail=batch.digest().hex()[:12], view=self.view)
        self.propose_batch(batch)

    # ------------------------------------------------------------ instances
    def instance(self, seq: SeqNum, view: Optional[ViewNum] = None) -> Instance:
        """Get or create the bookkeeping record for ``seq``."""
        inst = self.instances.get(seq)
        if inst is None:
            inst = Instance(seq=seq, view=self.view if view is None else view)
            self.instances[seq] = inst
        return inst

    def mark_committed(self, seq: SeqNum, batch: RequestBatch, view: ViewNum) -> None:
        """Record a locally committed batch and execute when in order."""
        inst = self.instance(seq, view)
        if inst.committed:
            return
        inst.committed = True
        inst.batch = batch
        self.stats.batches_committed += 1
        self.executable[seq] = (batch, view)
        if self.is_primary:
            self.instance_window_freed(seq)
        self.try_execute()

    def instance_window_freed(self, seq: SeqNum) -> None:
        """Release the outstanding-window slot held by ``seq`` at the primary."""
        self.in_flight.discard(seq)
        self.maybe_propose()

    # ------------------------------------------------------------- execution
    def try_execute(self, speculative: bool = False) -> None:
        """Execute every batch whose predecessors have all executed."""
        while True:
            next_seq = self.ledger.last_executed + 1
            entry = self.executable.get(next_seq)
            if entry is None:
                return
            batch, view = entry
            del self.executable[next_seq]
            self.execute_batch(next_seq, batch, view, speculative=speculative)

    def execute_batch(self, seq: SeqNum, batch: RequestBatch, view: ViewNum,
                      speculative: bool = False) -> None:
        """Apply a batch to the state machine and reply to its clients."""
        inst = self.instance(seq, view)
        if inst.executed:
            return
        inst.executed = True
        inst.batch = batch
        inst.speculative = speculative
        results: list[OperationResult] = []
        request_ids: list[str] = []
        responses: list[tuple[str, Response]] = []
        op_count = 0
        for request in batch.requests:
            self.proposed_requests.discard(request.request_id)
            request_results = tuple([self.state_machine.apply(op)
                                     for op in request.operations])
            op_count += len(request.operations)
            results.append(request_results[0])
            request_ids.append(str(request.request_id))
            response = self._build_reply(request, seq, view, request_results,
                                         speculative)
            if response is not None:
                responses.append((request.client, response))
        executed = ExecutedBatch(
            seq=seq, batch_digest=batch.digest(),
            request_ids=tuple(request_ids), results=tuple(results),
            executed_at=self.sim.now, speculative=speculative)
        self.ledger.record(executed)
        durable_at: Optional[Micros] = None
        if self.store.wal_record(seq) is None:
            # Replays from the local WAL skip the append (the record is the
            # source); live decisions and peer-transferred batches land here.
            durable_at = self.store.append_batch(seq, view, batch,
                                                 executed.batch_digest)
        # Execution and reply signing happen off the consensus critical path:
        # they occupy worker threads (and therefore contend with message
        # verification under load) but do not delay the protocol messages
        # produced by this handler.  Replies do wait for the batch's WAL
        # write: a replica only acknowledges what it could recover.
        reply_cost = (self.costs.execute_op_us * op_count
                      + len(responses) * (self.costs.ds_sign_us
                                          + self.costs.mac_generate_us))
        release_seq = seq if self._sequential_speculative_primary() else None
        tracer = self._tracer
        if tracer is not None:
            tracer.record("batch.execute", node=self.name, seq=seq, view=view,
                          detail=batch.digest().hex()[:12],
                          dur_us=self.costs.execute_op_us * op_count)
        self.workers.submit(reply_cost,
                            partial(self._send_replies, responses, release_seq,
                                    durable_at))
        self.stats.batches_executed += 1
        self.safety.record_execution(self.replica_id, seq, view, batch.digest(),
                                     self.sim.now)
        if self.is_primary:
            self._release_after_execution(seq)
        self.on_executed(seq, batch, view)
        self.maybe_checkpoint()

    def _release_after_execution(self, seq: SeqNum) -> None:
        """Free the primary's proposal window once ``seq`` has executed.

        For speculative protocols run in sequential mode the release is tied
        to the deferred execute-and-reply job instead (see
        :meth:`_send_replies`), which models the completion of the consensus
        invocation at the replicas.
        """
        if self._sequential_speculative_primary():
            return
        self.instance_window_freed(seq)

    def _build_reply(self, request: ClientRequest, seq: SeqNum, view: ViewNum,
                     results: tuple[OperationResult, ...],
                     speculative: bool) -> Optional[Response]:
        request_id = request.request_id
        client = request_id.client
        if client.startswith("__"):
            return None  # no-op filler batches have no client to answer
        # Result digests repeat heavily — every replica computes the same
        # digest for the same execution outcome, and write-dominated
        # workloads produce one outcome over and over — so memoise by value
        # (tuples of frozen dataclasses hash by value) with a bound.
        result_digest = _RESULT_DIGESTS.get(results)
        if result_digest is None:
            result_digest = digest(results)
            if len(_RESULT_DIGESTS) < _RESULT_DIGESTS_MAX:
                _RESULT_DIGESTS[results] = result_digest
        response = self.signed(reply_to(
            request, seq, view, self.replica_id, results[0], result_digest,
            speculative))
        self.reply_cache[request_id] = response
        latest = self.latest_reply.get(client)
        if latest is None or latest.request_id.number <= request_id.number:
            self.latest_reply[client] = response
        tracer = self._tracer
        if tracer is not None:
            # Keyed by the request-id string: the same key the client's
            # req.submit/req.complete events carry, closing the lifecycle.
            trace_id = str(request_id)
            tracer.record("req.reply", node=self.name, seq=seq, view=view,
                          detail=trace_id, trace_id=trace_id)
        return response

    def _send_replies(self, responses: list[tuple[str, Response]],
                      release_seq: Optional[SeqNum] = None,
                      durable_at: Optional[Micros] = None) -> None:
        for client, response in responses:
            if self.recovering:
                # Replayed history: the replies were already delivered by
                # the live replicas; the cache entries stay for resends.
                break
            if self.outbound_filter is not None and not self.outbound_filter(client, response):
                continue
            self.network.send(self.name, client, response,
                              earliest_departure=durable_at)
        if release_seq is not None:
            # Sequential speculative protocols (oFlexi-ZZ, MinZZ): the next
            # consensus invocation may only start once the previous one has
            # completed at the replicas.  The primary has no acknowledgement
            # in a single-phase protocol, so completion is approximated by the
            # primary's own execute-and-reply work plus one network round trip
            # — the ``batch / (phases × RTT)`` bound of Section 7.
            self.sim.schedule(2 * self.ctx.one_way_latency_us,
                              partial(self.instance_window_freed, release_seq))

    def _sequential_speculative_primary(self) -> bool:
        return (self.is_primary and self.speculative
                and self.config.max_outstanding == 1)

    def on_executed(self, seq: SeqNum, batch: RequestBatch, view: ViewNum) -> None:
        """Hook for protocols that need to act after execution."""

    # ------------------------------------------------------------ checkpoint
    def maybe_checkpoint(self) -> None:
        """Broadcast a checkpoint every ``checkpoint_interval`` executions."""
        seq = self.ledger.last_executed
        if seq == 0 or seq % self.config.checkpoint_interval != 0:
            return
        if seq <= self.ledger.stable_checkpoint:
            return
        state_digest = self.state_machine.state_digest()
        self.charge(self.costs.hash_us * 4)
        # The digest is taken exactly after executing ``seq``; this is the
        # point at which RSM safety requires honest replicas to agree.  The
        # snapshot taken alongside it is what checkpoint-based state transfer
        # (and, once stable, the durable store) hands to rejoining replicas.
        self.safety.record_state_digest(self.replica_id, seq, state_digest)
        self.ledger.store_snapshot(seq, self.state_machine.snapshot())
        self.ledger.record_checkpoint_digest(seq, state_digest)
        checkpoint = self.signed(Checkpoint(seq=seq, state_digest=state_digest,
                                            replica=self.replica_id))
        self._record_checkpoint_vote(checkpoint)
        self.broadcast(checkpoint)

    def on_checkpoint(self, checkpoint: Checkpoint, source: str) -> None:
        """Count matching checkpoint votes; stabilise at ``f + 1``."""
        self._record_checkpoint_vote(checkpoint)

    def _record_checkpoint_vote(self, checkpoint: Checkpoint) -> None:
        if checkpoint.seq < self.ledger.stable_checkpoint:
            return  # already covered by a stable checkpoint; don't resurrect logs
        votes = self.checkpoint_votes.setdefault(checkpoint.seq, {})
        votes[checkpoint.replica] = checkpoint
        matching = sum(1 for vote in votes.values()
                       if vote.state_digest == checkpoint.state_digest)
        if matching >= self.checkpoint_quorum() and checkpoint.seq > self.ledger.stable_checkpoint:
            self.ledger.mark_stable(checkpoint.seq)
            self.ledger.truncate_below(checkpoint.seq - self.config.checkpoint_interval)
            self.stats.checkpoints_taken += 1
            tracer = self._tracer
            if tracer is not None:
                tracer.record("checkpoint.stable", node=self.name,
                              seq=checkpoint.seq, view=self.view)
            if (self.ledger.checkpoint_digest(checkpoint.seq)
                    == checkpoint.state_digest):
                snapshot = self.ledger.snapshot_at(checkpoint.seq)
                if snapshot is not None:
                    self.store.save_checkpoint(checkpoint.seq,
                                               checkpoint.state_digest, snapshot)
            self.garbage_collect(checkpoint.seq)

    def garbage_collect(self, stable_seq: SeqNum) -> None:
        """Prune message logs covered by the stable checkpoint at ``stable_seq``.

        Everything executed at least one full checkpoint interval below the
        stable checkpoint can never be needed again — not by a view change
        (the checkpoint subsumes it) nor by a client resend (``latest_reply``
        keeps each client's most recent reply independently of this pruning)
        — so the per-request bookkeeping is dropped along with the consensus
        instances.  This is what bounds a replica's memory on long runs.
        """
        cutoff = stable_seq - self.config.checkpoint_interval
        for seq in [s for s, inst in self.instances.items()
                    if inst.executed and s <= cutoff]:
            inst = self.instances.pop(seq)
            self.executable.pop(seq, None)
            if inst.batch is not None:
                for request in inst.batch.requests:
                    self.reply_cache.pop(request.request_id, None)
                    self.forwarded_requests.discard(request.request_id)
                    self.proposed_requests.discard(request.request_id)
        for seq in [s for s in self.checkpoint_votes if s < stable_seq]:
            del self.checkpoint_votes[seq]

    def checkpoint_quorum(self) -> int:
        """Votes needed to declare a checkpoint stable (``f + 1``)."""
        return self.f + 1

    # -------------------------------------------------------------- recovery
    def begin_recovery(self) -> None:
        """Replay the local durable store, then fetch the rest from peers.

        Called by the deployment after a restart rebuild, or by
        :meth:`dispatch` when the replica notices it has fallen far behind
        the consensus frontier.  Until recovery finishes the replica emits no
        consensus messages and no client replies — it observes, replays, and
        only then rejoins.
        """
        if self.recovering or not self.active:
            return
        self.recovering = True
        self.stats.recoveries_started += 1
        tracer = self._tracer
        if tracer is not None:
            tracer.record("recovery.start", node=self.name, view=self.view,
                          seq=self.ledger.last_executed)
        self._transfer = StateTransferSession(f=self.f, started_at=self.sim.now)
        self._replay_local_store()
        self._request_state_transfer()

    def _replay_local_store(self) -> None:
        checkpoint = self.store.checkpoint
        if checkpoint is not None and checkpoint.seq > self.ledger.last_executed:
            self._install_snapshot(checkpoint.seq, checkpoint.state_digest,
                                   checkpoint.snapshot)
        for record in self.store.wal_suffix(self.ledger.last_executed):
            self.mark_committed(record.seq, record.batch, record.view)

    def _request_state_transfer(self) -> None:
        session = self._transfer
        if session is None or not self.recovering:
            return
        if session.rounds >= MAX_TRANSFER_ROUNDS:
            # Peers stopped moving the target or keep outrunning us; rejoin
            # best-effort and let live traffic (or the lag trigger) finish.
            self._finish_recovery()
            return
        request = self.signed(CheckpointRequest(
            replica=self.replica_id, last_executed=self.ledger.last_executed,
            round=session.next_round()))
        for name in self.replica_names_except_self():
            self.send(name, request)
        self.recovery_timer.restart(self.config.request_timeout_us)

    def _on_recovery_timeout(self) -> None:
        if self.recovering and self.active:
            self._request_state_transfer()

    def on_checkpoint_request(self, request: CheckpointRequest, source: str) -> None:
        """Serve a rejoining peer our stable checkpoint and log suffix."""
        if self.recovering:
            return  # we are catching up ourselves; nothing trustworthy to serve
        seq = self.ledger.stable_checkpoint
        state_digest = self.ledger.checkpoint_digest(seq) if seq > 0 else None
        snapshot = self.ledger.snapshot_at(seq) if seq > 0 else None
        if state_digest is None or snapshot is None:
            # No usable stable checkpoint (e.g. we rejoined past it ourselves):
            # offer log replay only.
            seq, state_digest, snapshot = 0, b"", None
        # Attach the f+1 signed votes that stabilised the checkpoint: with a
        # valid certificate this single reply is enough for the requester.
        certificate = tuple(
            vote for vote in self.checkpoint_votes.get(seq, {}).values()
            if vote.state_digest == state_digest)[:self.checkpoint_quorum()]
        if len(certificate) < self.checkpoint_quorum():
            certificate = ()
        self.charge(self.costs.hash_us * 4)
        reply = self.signed(CheckpointReply(
            replica=self.replica_id, checkpoint_seq=seq,
            state_digest=state_digest, last_executed=self.ledger.last_executed,
            view=self.view, snapshot=snapshot, certificate=certificate))
        self.send(source, reply)
        entries = self._log_fill_entries(max(seq, request.last_executed))
        if entries:
            self.stats.log_fill_batches_sent += len(entries)
            fill = self.signed(LogFill(replica=self.replica_id,
                                       entries=tuple(entries)))
            self.send(source, fill)

    def _log_fill_entries(self, after_seq: SeqNum) -> list[LogFillEntry]:
        """Decided batches above ``after_seq`` this replica can replay.

        Served from the durable store's WAL, which retains the batches past
        consensus-instance garbage collection.
        """
        entries: list[LogFillEntry] = []
        for record in self.store.wal_suffix(after_seq):
            entries.append(LogFillEntry(
                seq=record.seq, view=record.view, batch=record.batch,
                batch_digest=record.batch_digest))
            if len(entries) >= LOG_FILL_LIMIT:
                break
        return entries

    def on_checkpoint_reply(self, reply: CheckpointReply, source: str) -> None:
        """Collect peer checkpoints; install a certified or f+1-agreed one."""
        session = self._transfer
        if not self.recovering or session is None:
            return
        voter = self._voter_id(source)
        if voter is None:
            return
        session.add_reply(voter, reply, certified=self._certificate_valid(reply))
        candidate = session.checkpoint_candidate()
        if candidate is not None:
            seq, state_digest = candidate
            if seq > self.ledger.last_executed and seq > session.installed_checkpoint:
                for snapshot in session.snapshots_for(seq, state_digest):
                    if self._install_snapshot(seq, state_digest, snapshot):
                        session.installed_checkpoint = seq
                        break
        self._apply_ready_fills()
        self.try_execute()
        self._check_recovery_progress()

    def _voter_id(self, source: str) -> Optional[ReplicaId]:
        """Replica id of the authenticated channel a message arrived on.

        Vote counting keys on the channel, not on the replica id stamped in
        the message, so one byzantine peer cannot cast several votes.
        """
        try:
            return self.ctx.replica_names.index(source)
        except ValueError:
            return None

    def _certificate_valid(self, reply: CheckpointReply) -> bool:
        """Whether the reply's f+1 signed Checkpoint votes check out."""
        certificate = reply.certificate
        if len(certificate) < self.checkpoint_quorum():
            return False
        voters: set[ReplicaId] = set()
        for vote in certificate:
            if not isinstance(vote, Checkpoint):
                return False
            if (vote.seq != reply.checkpoint_seq
                    or vote.state_digest != reply.state_digest
                    or vote.replica in voters
                    or not 0 <= vote.replica < self.n):
                return False
            # The signature must come from the replica the vote claims —
            # otherwise one byzantine peer could mint a whole certificate
            # from its single signing key.
            if (vote.signature is None
                    or vote.signature.signer != self.ctx.replica_names[vote.replica]
                    or not self.ctx.keystore.is_valid_encoded(
                        signed_part_bytes(vote), vote.signature)):
                return False
            voters.add(vote.replica)
        return True

    def _install_snapshot(self, seq: SeqNum, state_digest: bytes,
                          snapshot: object) -> bool:
        """Adopt a checkpoint snapshot, advancing the ledger to ``seq``."""
        if snapshot is None:
            return False
        current = self.state_machine.snapshot()
        self.state_machine.restore(snapshot)
        self.charge(self.costs.hash_us * 4)
        if state_digest and self.state_machine.state_digest() != state_digest:
            self.state_machine.restore(current)
            return False  # a lying peer slipped a bad snapshot into the quorum
        self.ledger.mark_stable(seq)
        self.ledger.last_executed = max(self.ledger.last_executed, seq)
        self.ledger.store_snapshot(seq, snapshot)
        if state_digest:
            self.ledger.record_checkpoint_digest(seq, state_digest)
            self.safety.record_state_digest(self.replica_id, seq, state_digest)
        for stale in [s for s in self.executable if s <= seq]:
            del self.executable[stale]
        for stale in [s for s in self.instances if s <= seq]:
            del self.instances[stale]
        self.store.save_checkpoint(seq, state_digest, snapshot)
        return True

    def on_log_fill(self, fill: LogFill, source: str) -> None:
        """Collect decided batches peers sent to close our log gap.

        Entries are votes, not truths: a batch replays only once ``f + 1``
        distinct peers vouched for the same ``(seq, batch digest)``, so one
        lying peer cannot make a rejoining replica execute fabricated state.
        """
        session = self._transfer
        if not self.recovering or session is None:
            return
        voter = self._voter_id(source)
        if voter is None:
            return
        for entry in fill.entries:
            if entry.seq <= self.ledger.last_executed:
                continue
            if entry.batch.digest() != entry.batch_digest:
                continue  # corrupt or forged entry
            session.add_fill(voter, entry)
        self._apply_ready_fills()
        self._check_recovery_progress()

    def _apply_ready_fills(self) -> None:
        session = self._transfer
        if session is None:
            return
        for entry in session.ready_fills(self.ledger.last_executed):
            inst = self.instances.get(entry.seq)
            if inst is not None and inst.committed:
                continue
            self.stats.log_fill_batches_applied += 1
            tracer = self._tracer
            if tracer is not None:
                tracer.record("transfer.batch", node=self.name,
                              seq=entry.seq, view=entry.view)
            self.mark_committed(entry.seq, entry.batch, entry.view)
        session.prune_fills(self.ledger.last_executed)

    def _check_recovery_progress(self) -> None:
        session = self._transfer
        if session is None or not self.recovering:
            return
        if session.caught_up(self.ledger.last_executed):
            self._finish_recovery()
        elif len(session.replies) >= self.n - 1:
            # Every peer answered but the frontier moved on: go again now
            # rather than waiting for the retry timer.
            self._request_state_transfer()

    def _finish_recovery(self) -> None:
        """Rejoin consensus: adopt the peers' view and resume participating."""
        session = self._transfer
        self.recovering = False
        self._transfer = None
        self.recovery_timer.cancel()
        self.stats.recoveries_completed += 1
        self.recovered_at = self.sim.now
        tracer = self._tracer
        if tracer is not None:
            tracer.record("recovery.done", node=self.name, view=self.view,
                          seq=self.ledger.last_executed)
        if session is not None and session.target_view > self.view:
            self.enter_view(session.target_view)
        self.next_seq = max(self.next_seq, self.ledger.last_executed,
                            self.ledger.stable_checkpoint)
        self.try_execute()
        self.maybe_propose()

    # ---------------------------------------------------- speculative helpers
    def on_commit_certificate(self, certificate: CommitCertificate, source: str) -> None:
        """Acknowledge a client commit certificate (speculative protocols)."""
        response = self.cached_reply(certificate.request_id)
        if response is None or response.result_digest != certificate.result_digest:
            return
        ack = self.signed(CommitAck(
            request_id=certificate.request_id, seq=certificate.seq,
            view=certificate.view, replica=self.replica_id,
            result_digest=certificate.result_digest))
        self.send(source, ack)

    # ------------------------------------------------------------ view change
    def view_change_trigger_quorum(self) -> int:
        """Votes needed before a replica joins a view change it did not start."""
        return self.f + 1

    def _on_progress_timeout(self) -> None:
        if not self.active or self.in_view_change or self.recovering:
            return
        self.initiate_view_change(self.view + 1)

    def initiate_view_change(self, new_view: ViewNum) -> None:
        """Vote to replace the primary of the current view."""
        if new_view <= self.view and self.in_view_change:
            return
        self.in_view_change = True
        self.stats.view_changes_started += 1
        tracer = self._tracer
        if tracer is not None:
            tracer.record("view.change", node=self.name, view=new_view,
                          seq=self.ledger.last_executed)
        proofs = tuple(self.collect_view_change_proofs())
        vc = self.signed(ViewChange(
            new_view=new_view, replica=self.replica_id,
            last_stable_seq=self.ledger.stable_checkpoint, prepared=proofs))
        self._record_view_change_vote(vc)
        self.broadcast(vc)
        self.progress_timer.restart(self.config.view_change_timeout_us)

    def collect_view_change_proofs(self) -> list[PreparedProof]:
        """Evidence of batches that must survive into the next view."""
        proofs = []
        for seq in sorted(self.instances):
            inst = self.instances[seq]
            if inst.batch is None or inst.batch_digest is None:
                continue
            if inst.prepared or inst.committed or inst.executed:
                attestation = (inst.preprepare.attestation
                               if inst.preprepare is not None else None)
                proofs.append(PreparedProof(
                    view=inst.view, seq=seq, batch=inst.batch,
                    batch_digest=inst.batch_digest, attestation=attestation,
                    prepare_count=len(inst.prepares)))
        return proofs

    def on_view_change(self, vc: ViewChange, source: str) -> None:
        """Collect view-change votes; the new primary installs the view."""
        if vc.new_view <= self.view and not (vc.new_view == self.view and self.in_view_change):
            return
        self._record_view_change_vote(vc)
        votes = self.view_change_votes.get(vc.new_view, {})
        if (not self.in_view_change
                and len(votes) >= self.view_change_trigger_quorum()):
            # Join the view change: enough peers suspect the primary.
            self.initiate_view_change(vc.new_view)
            votes = self.view_change_votes.get(vc.new_view, {})
        if (self.primary_of(vc.new_view) == self.replica_id
                and len(votes) >= self.quorum
                and vc.new_view not in self.new_view_sent):
            self._install_new_view(vc.new_view, votes)

    def _record_view_change_vote(self, vc: ViewChange) -> None:
        self.view_change_votes.setdefault(vc.new_view, {})[vc.replica] = vc

    def _install_new_view(self, new_view: ViewNum, votes: dict[ReplicaId, ViewChange]) -> None:
        self.new_view_sent.add(new_view)
        proposals = self.build_new_view_proposals(new_view, votes)
        new_view_msg = self.signed(NewView(
            view=new_view, primary=self.replica_id,
            view_change_replicas=tuple(sorted(votes)),
            proposals=tuple(proposals)))
        self.broadcast(new_view_msg)
        self.on_new_view(new_view_msg, self.name)

    def build_new_view_proposals(self, new_view: ViewNum,
                                 votes: dict[ReplicaId, ViewChange]) -> list[PrePrepare]:
        """Re-propose every batch that may have committed in earlier views.

        Collects the highest-view proof per sequence number from the
        view-change votes, fills gaps with no-op batches, and asks the
        protocol (via :meth:`reissue_proposal`) to build the new-view
        Preprepare, which for FlexiTrust protocols involves creating a fresh
        trusted counter.
        """
        best: dict[SeqNum, PreparedProof] = {}
        min_stable = 0
        for vc in votes.values():
            min_stable = max(min_stable, vc.last_stable_seq)
            for proof in vc.prepared:
                current = best.get(proof.seq)
                if current is None or proof.view > current.view:
                    best[proof.seq] = proof
        proposals: list[PrePrepare] = []
        if not best:
            return proposals
        low = min(best)
        high = max(best)
        self.prepare_new_view_counter(new_view, low)
        for seq in range(low, high + 1):
            if seq <= min_stable and seq not in best:
                continue
            proof = best.get(seq)
            batch = proof.batch if proof is not None else noop_batch()
            proposals.append(self.reissue_proposal(new_view, seq, batch))
        return proposals

    def prepare_new_view_counter(self, new_view: ViewNum, lowest_seq: SeqNum) -> None:
        """Hook for FlexiTrust primaries to create a fresh trusted counter."""

    def reissue_proposal(self, new_view: ViewNum, seq: SeqNum,
                         batch: RequestBatch) -> PrePrepare:
        """Build the Preprepare re-proposing ``batch`` at ``seq`` in ``new_view``."""
        return self.signed(PrePrepare(
            view=new_view, seq=seq, batch=batch, batch_digest=batch.digest(),
            primary=self.replica_id))

    def on_new_view(self, new_view: NewView, source: str) -> None:
        """Validate and install a new view, then process its re-proposals."""
        if (new_view.view < self.view
                or self.primary_of(new_view.view) != new_view.primary
                or source != self.ctx.replica_names[new_view.primary]):
            return  # not from the new view's primary: a byzantine sender
        self.enter_view(new_view.view)
        self.stats.view_changes_completed += 1
        # Re-arm the exactly-once window for every reissued request *after*
        # enter_view, whose stale-instance cleanup just discarded the old
        # view's ids — the same batches now live on in these proposals.
        # Proposals this replica already executed are skipped: their execute
        # discard already ran, and re-arming them would leak forever.
        self.proposed_requests.update(
            request.request_id
            for proposal in new_view.proposals
            if proposal.seq > self.ledger.last_executed
            for request in proposal.batch.requests)
        for proposal in new_view.proposals:
            self.on_preprepare(proposal, source)
        # Disarm ids of proposals on_preprepare rejected (e.g. a conflicting
        # digest from a byzantine new-view primary): no instance will ever
        # execute — and hence discard — them, and a permanently armed id
        # would silently swallow that client's future requests here.
        for proposal in new_view.proposals:
            if proposal.seq <= self.ledger.last_executed:
                continue
            inst = self.instances.get(proposal.seq)
            if inst is None or inst.batch_digest != proposal.batch_digest:
                for request in proposal.batch.requests:
                    self.proposed_requests.discard(request.request_id)
        # The new view's sequence numbering continues after the highest
        # re-proposed (or executed) slot; anything above that was abandoned.
        highest_reproposed = max((p.seq for p in new_view.proposals), default=0)
        self.next_seq = max(self.ledger.last_executed, highest_reproposed,
                            self.ledger.stable_checkpoint)
        self.maybe_propose()

    def enter_view(self, view: ViewNum) -> None:
        """Switch to ``view`` and reset view-change state."""
        self.view = max(self.view, view)
        tracer = self._tracer
        if tracer is not None:
            tracer.record("view.installed", node=self.name, view=self.view,
                          seq=self.ledger.last_executed)
        self.in_view_change = False
        self.progress_timer.cancel()
        self.in_flight.clear()
        # Drop consensus state from earlier views that never took effect: the
        # new primary may legitimately reuse those sequence numbers.
        stale = [seq for seq, inst in self.instances.items()
                 if inst.view < self.view and not inst.committed and not inst.executed]
        for seq in stale:
            inst = self.instances.pop(seq)
            self.executable.pop(seq, None)
            if inst.batch is not None:
                # The batch was abandoned: its requests may legitimately be
                # re-proposed (by the new primary or after a client resend).
                for request in inst.batch.requests:
                    self.proposed_requests.discard(request.request_id)

    # --------------------------------------------------------------- helpers
    def executed_digest(self, seq: SeqNum) -> Optional[bytes]:
        """Digest of the batch executed at ``seq`` (None if not executed)."""
        entry = self.ledger.entry(seq)
        return entry.batch_digest if entry is not None else None

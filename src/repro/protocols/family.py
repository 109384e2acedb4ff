"""The protocol family: one normal case, three trusted bindings, ten names.

The paper derives all of its protocols from one primary-backup normal case —
the primary binds a batch to a sequence number and broadcasts a Preprepare,
replicas accept it, vote, and commit on a quorum of matching votes — that
differs in three places, and this module is written the same way:

* ``phases`` — 3 (Prepare + Commit), 2 (Prepare only: an attested proposal is
  its own proof, so the Commit round is redundant) or 1 (speculative: execute
  on the proposal and let the client collect the quorum).
* the **trusted binding** — Section 4's trust-bft protocols bind *every message
  a replica sends* to the sender's own counter (:class:`OwnCounterBinding`) or
  per-phase log (:class:`OwnLogBinding`); Section 8.1's FlexiTrust protocols
  bind *only the primary's proposal*, through ``AppendF``
  (:class:`PrimaryOnlyBinding`).  A binding is three hooks: ``order``, how
  the primary obtains the sequence number and attestation of a batch;
  ``proposal_slot``, the (counter or log id, value) a backup requires that
  attestation to bind for the proposal's seq; and ``bind``, what attests a
  replica's own vote or speculative reply.
* the **quorum** — ``f + 1`` of ``2f + 1`` replicas or ``2f + 1`` of ``3f + 1``,
  derived from ``n`` once as :attr:`BaseReplica.quorum`.

Each protocol is then a phase count declared on top of one binding.  Reading
:class:`MinBftReplica` against :class:`FlexiBftReplica` (or :class:`MinZzReplica`
against :class:`FlexiZzReplica`) *is* the FlexiTrust transformation: the same
phases, the binding swapped, and — at 3f + 1 replicas — the larger quorum.

Figure 5 runs the opposite experiment: it grafts trusted use onto Pbft, bar
by bar, to price it.  A bar is data, a :class:`TrustedUsage` carried on the
deployment spec, and :class:`GraftedPbftReplica` pays for it from the same
hooks: ``order`` for the primary's Preprepare access, ``bind`` for a
replica's Prepare and Commit, ``mark_committed`` for the access on
committing; it overrides no message handler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..common.errors import ProtocolError, SlotOccupied
from ..common.types import SeqNum, ViewNum
from ..trusted.attestation import Attestation, verify_attestation
from .base import BaseReplica
from .messages import Commit, PrePrepare, Prepare, RequestBatch

#: the three message kinds of the normal case; Pbft-EA keeps one trusted log
#: per kind (the paper gives each phase its own log).
PREPREPARE, PREPARE, COMMIT = 0, 1, 2

#: own-counter binding: the trusted counter the primary orders batches with, and
#: the one every replica binds its outgoing votes to.
ORDER_COUNTER, MESSAGE_COUNTER = 0, 1


class NormalCaseReplica(BaseReplica):
    """The primary-backup normal case every protocol of the paper shares.

    Without a trusted binding this is Pbft (``phases = 3``) or Zyzzyva (``= 1``):
    the primary numbers batches itself and nothing is attested.  The primary's
    Preprepare counts as its Prepare vote (a standard implementation shortcut),
    and a replica's first Commit vote is broadcast as soon as the batch
    prepares, exactly like the textbook protocol.
    """

    #: rounds per consensus instance, the proposal included (3, 2 or 1).
    phases = 3
    #: whether proposals carry a trusted attestation replicas must verify.
    attested = False

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.speculative = cls.phases == 1

    def __init__(self, replica_id, ctx) -> None:
        super().__init__(replica_id, ctx)
        if self.attested and self.trusted is None:
            raise ProtocolError(f"{self.protocol_name} requires trusted components")

    # -------------------------------------------------------- trusted binding
    def order(self, batch_digest: bytes) -> tuple[SeqNum, Optional[Attestation]]:
        """Primary: the sequence number (and attestation) of the next batch."""
        self.next_seq += 1
        return self.next_seq, None

    def bind(self, kind: int, seq: SeqNum, batch_digest: bytes,
             proposal: Optional[Attestation]) -> Optional[Attestation]:
        """What attests this replica's own vote or speculative reply."""
        return None

    def proposal_slot(self, seq: SeqNum) -> tuple[Optional[int], int]:
        """Backup: the (counter or log id, value) a proposal for ``seq`` must
        be attested at (id ``None``: any).  Asked only when ``attested``."""
        raise NotImplementedError

    # ------------------------------------------------------------- proposing
    def propose_batch(self, batch: RequestBatch) -> None:
        """Order the batch, broadcast the Preprepare, and cast the primary's vote."""
        batch_digest = batch.digest()
        self.charge(self.costs.hash_us * max(1, len(batch)))
        try:
            seq, attestation = self.order(batch_digest)
        except SlotOccupied:
            # A sequential trusted log refuses to go backwards; the consensus
            # instance for this sequence number cannot make progress here.
            return
        preprepare = self.signed(PrePrepare(
            view=self.view, seq=seq, batch=batch, batch_digest=batch_digest,
            primary=self.replica_id, attestation=attestation))
        inst = self.instance(seq, self.view)
        inst.batch = batch
        inst.batch_digest = batch_digest
        inst.preprepare = preprepare
        self.in_flight.add(seq)
        self.broadcast(preprepare)
        if self.phases == 1:
            self._execute_speculatively(inst)
            return
        # The primary's proposal doubles as its Prepare vote.
        inst.prepares[self.replica_id] = Prepare(
            view=self.view, seq=seq, batch_digest=batch_digest,
            replica=self.replica_id, attestation=attestation)
        if self.phases == 2:
            inst.prepared = True  # the attestation is the proposal's proof
            self._check_committed(seq)

    # ---------------------------------------------------------------- phases
    def on_preprepare(self, preprepare: PrePrepare, source: str) -> None:
        if preprepare.view < self.view or preprepare.primary != self.primary_of(preprepare.view):
            return
        if self.attested and not self._attested_at_slot(preprepare):
            return
        seq, batch_digest = preprepare.seq, preprepare.batch_digest
        inst = self.instance(seq, preprepare.view)
        if inst.preprepare is not None and (
                self.phases == 1 or inst.batch_digest != batch_digest):
            # Conflicting proposal for the same slot: ignore (the view change
            # deals with an equivocating primary).  A speculative replica has
            # already executed the slot, so it drops a duplicate as well.
            return
        if inst.preprepare is None:
            inst.preprepare = preprepare
            inst.batch = preprepare.batch
            inst.batch_digest = batch_digest
            inst.view = preprepare.view
            if self.phases == 2:
                inst.prepared = True  # the attestation is the proposal's proof
        if self.phases == 1:
            self.bind(PREPARE, seq, batch_digest, preprepare.attestation)
            self._execute_speculatively(inst)
            return
        # Count the primary's implicit Prepare and our own, then vote.
        inst.prepares[preprepare.primary] = Prepare(
            view=preprepare.view, seq=seq, batch_digest=batch_digest,
            replica=preprepare.primary, attestation=preprepare.attestation)
        if self.replica_id not in inst.prepares:
            try:
                attestation = self.bind(PREPARE, seq, batch_digest, preprepare.attestation)
            except SlotOccupied:
                return
            prepare = self.signed(Prepare(
                view=preprepare.view, seq=seq, batch_digest=batch_digest,
                replica=self.replica_id, attestation=attestation))
            inst.prepares[self.replica_id] = prepare
            self.broadcast(prepare)
        if self.phases == 3:
            self._check_prepared(seq)
        else:
            self._check_committed(seq)

    def on_prepare(self, prepare: Prepare, source: str) -> None:
        """Count a Prepare vote (a speculative protocol has none: ignored)."""
        if self.phases == 1 or prepare.view < self.view:
            return
        inst = self.instance(prepare.seq, prepare.view)
        inst.prepares[prepare.replica] = prepare
        if self.phases == 3:
            self._check_prepared(prepare.seq)
        else:
            self._check_committed(prepare.seq)

    def on_commit(self, commit: Commit, source: str) -> None:
        """Count a Commit vote (below three phases there is none: ignored)."""
        if self.phases < 3 or commit.view < self.view:
            return
        inst = self.instance(commit.seq, commit.view)
        inst.commits[commit.replica] = commit
        self._check_committed(commit.seq)

    def _attested_at_slot(self, preprepare: PrePrepare) -> bool:
        """Whether the primary's component bound this batch to the slot that
        :meth:`proposal_slot` names for the proposal's seq.

        A valid signature alone proves only *some* binding: without the slot
        check a primary attests ``T``, then ``T'``, and serves both as one seq.
        """
        attestation = preprepare.attestation
        if attestation is None:
            return False
        try:
            verify_attestation(
                self.ctx.keystore, attestation,
                expected_component=f"tc/{self.ctx.replica_names[preprepare.primary]}",
                expected_digest=preprepare.batch_digest)
        except Exception:
            return False
        counter_id, value = self.proposal_slot(preprepare.seq)
        return attestation.value == value and counter_id in (None, attestation.counter_id)

    # --------------------------------------------------------------- quorums
    def _check_prepared(self, seq: SeqNum) -> None:
        """Three phases: a quorum of matching Prepares sends our Commit."""
        inst = self.instances.get(seq)
        if inst is None or inst.prepared or inst.batch_digest is None:
            return
        matching = sum(1 for p in inst.prepares.values()
                       if p.batch_digest == inst.batch_digest)
        if matching < self.quorum:
            return
        inst.prepared = True
        try:
            attestation = self.bind(COMMIT, seq, inst.batch_digest, inst.preprepare.attestation)
        except SlotOccupied:
            return
        commit = self.signed(Commit(
            view=inst.view, seq=seq, batch_digest=inst.batch_digest,
            replica=self.replica_id, attestation=attestation))
        inst.commits[self.replica_id] = commit
        self.broadcast(commit)
        self._check_committed(seq)

    def _check_committed(self, seq: SeqNum) -> None:
        """A quorum of matching last-round votes commits the batch."""
        inst = self.instances.get(seq)
        if inst is None or inst.committed or inst.batch is None:
            return
        votes = inst.commits if self.phases == 3 else inst.prepares
        matching = sum(1 for vote in votes.values()
                       if vote.batch_digest == inst.batch_digest)
        if matching >= self.quorum:
            self.mark_committed(seq, inst.batch, inst.view)

    def _execute_speculatively(self, inst) -> None:
        """One phase: the accepted proposal is executed in sequence order."""
        inst.prepared = True
        inst.committed = True
        self.executable[inst.seq] = (inst.batch, inst.view)
        self.try_execute(speculative=True)


# ------------------------------------------------- the three trusted bindings
class OwnCounterBinding(NormalCaseReplica):
    """Section 4: every replica binds what it sends to its own trusted counter.

    The primary binds each batch to the next value of its own counter; every
    replica binds each *message it sends* to its own (MinBFT's "unique
    identifier"), which is why trusted-hardware latency sits on the critical
    path of every phase and consensus invocations are sequential (Section 7).
    """

    attested = True

    def order(self, batch_digest):
        attestation = self.trusted.counter_append(ORDER_COUNTER, None, batch_digest)
        self.next_seq = max(self.next_seq, attestation.value)
        return attestation.value, attestation

    def bind(self, kind, seq, batch_digest, proposal):
        return self.trusted.counter_append(MESSAGE_COUNTER, None, batch_digest)

    def proposal_slot(self, seq):
        return ORDER_COUNTER, seq


class OwnLogBinding(NormalCaseReplica):
    """Section 4: every message is appended to the sender's trusted log.

    Preprepare at the primary, Prepare and Commit everywhere: each is appended
    to the sender's log for that message kind and travels with the resulting
    attestation.  With ``parallel_logs`` every sequence number uses its own log
    identifier, so concurrent instances never contend for a slot (the replicas
    still pay one trusted access per message).
    """

    attested = True
    parallel_logs = False

    def order(self, batch_digest):
        self.next_seq += 1
        return self.next_seq, self.bind(PREPREPARE, self.next_seq, batch_digest, None)

    def bind(self, kind, seq, batch_digest, proposal):
        if self.parallel_logs:
            # One log per (kind, sequence number): appends never conflict.
            return self.trusted.log_append(kind * 1_000_000 + seq, None, batch_digest)
        return self.trusted.log_append(kind, seq, batch_digest)

    def proposal_slot(self, seq):
        if self.parallel_logs:
            return PREPREPARE * 1_000_000 + seq, 1
        return PREPREPARE, seq


class PrimaryOnlyBinding(NormalCaseReplica):
    """Section 8.1: only the primary's proposal touches trusted hardware.

    A single ``AppendF`` per batch binds the batch digest to the next contiguous
    value of the view's counter, and the attestation travels inside the
    Preprepare.  Replicas verify it with no trusted access of their own and
    their votes carry it along, so consensus instances run in parallel:
    replicas no longer serialise on local counters.
    """

    attested = True

    def __init__(self, replica_id, ctx) -> None:
        super().__init__(replica_id, ctx)
        #: identifier of the FlexiTrust counter used for proposals in the
        #: current view; view changes replace it via ``Create``.
        self.counter_id = 0
        self._counter_ready = False

    def order(self, batch_digest):
        if not self._counter_ready:
            self.counter_id, _ = self.trusted.create_counter(self.next_seq)
            self._counter_ready = True
        attestation = self.trusted.append_f(self.counter_id, batch_digest)
        self.next_seq = max(self.next_seq, attestation.value)
        return attestation.value, attestation

    def bind(self, kind, seq, batch_digest, proposal):
        return proposal

    def proposal_slot(self, seq):
        # Any counter: a backup cannot tell which one the view's Create
        # minted, because NewView does not carry that attestation.
        return None, seq

    # ------------------------------------------------------------ view change
    def prepare_new_view_counter(self, new_view: ViewNum, lowest_seq: SeqNum) -> None:
        """Create a fresh trusted counter so re-proposals keep their numbers."""
        self.counter_id, _ = self.trusted.create_counter(max(0, lowest_seq - 1))
        self._counter_ready = True

    def reissue_proposal(self, new_view: ViewNum, seq: SeqNum,
                         batch: RequestBatch) -> PrePrepare:
        """Re-propose ``batch`` at ``seq`` with a fresh attestation."""
        batch_digest = batch.digest()
        attestation = self.trusted.append_f(self.counter_id, batch_digest)
        return self.signed(PrePrepare(
            view=new_view, seq=attestation.value, batch=batch,
            batch_digest=batch_digest, primary=self.replica_id,
            attestation=attestation))

    def enter_view(self, view: ViewNum) -> None:
        super().enter_view(view)
        if self.is_primary and view > 0:
            # A new primary must not reuse the previous view's counter.
            self._counter_ready = False


# -------------------------------------------------------------- the protocols
class PbftReplica(NormalCaseReplica):
    """Pbft: the classic three-phase BFT protocol (Section 3).

    n = 3f + 1 replicas, no trusted components.  The primary assigns sequence
    numbers; replicas exchange Prepare and Commit votes and commit once 2f + 1
    matching votes arrive in each phase.  Consensus instances proceed in
    parallel (the paper's exemplar of "traditional parallel bft").
    """

    protocol_name = "pbft"
    phases = 3


class ZyzzyvaReplica(NormalCaseReplica):
    """Zyzzyva: speculative single-phase BFT without trusted components.

    n = 3f + 1 replicas.  The primary orders requests and broadcasts; replicas
    speculatively execute in sequence order and answer the client directly.
    The fast path needs matching replies from **all** 3f + 1 replicas; with even
    one unresponsive replica every request falls back to the two-phase slow
    path (client-assembled commit certificate of 2f + 1 replies, acknowledged
    by 2f + 1 replicas), which is why Zyzzyva collapses in Figure 7.
    """

    protocol_name = "zyzzyva"
    phases = 1


class PbftEaReplica(OwnLogBinding):
    """Pbft-EA: three-phase trust-bft consensus over attested logs (Section 4.2).

    n = 2f + 1 replicas, each with a trusted append-only log.  Quorums shrink
    to f + 1 because the logs preclude equivocation, but the protocol keeps
    all three Pbft phases.  Consensus invocations are sequential: the log
    refuses to go backwards.
    """

    protocol_name = "pbft-ea"
    phases = 3


class OpbftEaReplica(PbftEaReplica):
    """Opbft-ea: Pbft-EA with parallel consensus invocations (Section 9.2); one
    trusted access per message is what still bottlenecks it in Figure 6(i)."""

    protocol_name = "opbft-ea"
    parallel_logs = True


class MinBftReplica(OwnCounterBinding):
    """MinBFT: two-phase trust-bft consensus with trusted counters (Section 4.2).

    n = 2f + 1 replicas.  A batch commits after f + 1 matching Prepare votes —
    the Commit phase of Pbft-EA is redundant once equivocation is impossible.
    The deployment layer pins ``max_outstanding`` to 1 for this protocol.
    """

    protocol_name = "minbft"
    phases = 2


class MinZzReplica(OwnCounterBinding):
    """MinZZ: single-phase speculative trust-bft consensus (Section 4.2).

    n = 2f + 1 replicas.  Replicas verify the primary's attestation, bind their
    own reply to their counter, execute speculatively in sequence order and
    answer the client directly.  The fast path needs matching replies from
    *all* n replicas, so a single unresponsive replica pushes every request
    onto the slow path (Figure 7), which mirrors Zyzzyva's: a client holding
    f + 1 matching replies broadcasts a commit certificate, and f + 1
    acknowledgements complete the request.
    """

    protocol_name = "minzz"
    phases = 1


class FlexiBftReplica(PrimaryOnlyBinding):
    """Flexi-BFT: the FlexiTrust transformation of MinBFT (Section 8.2).

    n = 3f + 1 replicas.  Replicas verify the primary's attestation,
    broadcast Prepare, and commit on 2f + 1 matching Prepare votes — one phase
    fewer than Pbft.
    """

    protocol_name = "flexi-bft"
    phases = 2


class FlexiZzReplica(PrimaryOnlyBinding):
    """Flexi-ZZ: the FlexiTrust transformation of MinZZ / Zyzzyva (Section 8.3).

    n = 3f + 1 replicas and a single linear phase: every replica (primary
    included) executes speculatively in sequence order and answers the client
    directly.  The client completes on 2f + 1 matching replies — which means
    the fast path survives up to f unresponsive replicas, unlike Zyzzyva and
    MinZZ which need *all* replicas to answer (Figure 7).
    """

    protocol_name = "flexi-zz"
    phases = 1

    def rollback_speculation(self, to_seq: SeqNum) -> None:
        """Undo speculative executions above ``to_seq`` (Section 8.3).

        Replicas that executed a batch fewer than 2f + 1 replicas saw may have
        to abandon it after a view change; the state machine is restored from
        the snapshot taken at ``to_seq`` (or replayed from the stable
        checkpoint by the deployment if no snapshot exists).
        """
        removed = self.ledger.rollback_to(to_seq)
        for batch in removed:
            self.safety.record_rollback(self.replica_id, batch.seq)
        snapshot = self.ledger.snapshot_at(to_seq)
        if snapshot is not None:
            self.state_machine.restore(snapshot)


# --------------------------------------------------- Figure 5's grafted Pbft
@dataclass(frozen=True)
class TrustedUsage:
    """Which replicas access trusted hardware, in which phases, and how."""

    label: str
    description: str
    primary_tc: bool = False
    primary_sa: bool = False
    all_replicas: bool = False
    all_phases: bool = False


#: The seven bars of Figure 5.
FIGURE5_BARS: tuple[TrustedUsage, ...] = (
    TrustedUsage("a", "standard Pbft"),
    TrustedUsage("b", "primary TC in Preprepare", primary_tc=True),
    TrustedUsage("c", "primary TC+SA in Preprepare", primary_tc=True,
                 primary_sa=True),
    TrustedUsage("d", "primary TC+SA in all phases", primary_tc=True,
                 primary_sa=True, all_phases=True),
    TrustedUsage("e", "all replicas TC in Preprepare", primary_tc=True,
                 all_replicas=True),
    TrustedUsage("f", "all replicas TC+SA in Preprepare", primary_tc=True,
                 primary_sa=True, all_replicas=True),
    TrustedUsage("g", "all replicas TC+SA in all phases", primary_tc=True,
                 primary_sa=True, all_replicas=True, all_phases=True),
)


class GraftedPbftReplica(PbftReplica):
    """Pbft paying for the trusted use its deployment declares (Figure 5).

    ``ctx.trusted_usage`` names the bar.  Each access is one trusted-counter
    append, plus a signature when the bar attests (SA): the primary's in
    ``order``, a backup's on accepting the proposal (``bind(PREPARE)``), and
    with ``all_phases`` one on becoming prepared (``bind(COMMIT)``) and one
    on committing, at the primary or at every replica.  An attested message
    costs its receiver one attestation verification.  Nothing is attached
    to the messages: the protocol is Pbft, only its costs change.
    """

    def __init__(self, replica_id, ctx) -> None:
        super().__init__(replica_id, ctx)
        usage = self.usage = ctx.trusted_usage
        #: messages that would carry an attestation the receiver verifies.
        self._attested_kinds = (
            () if not usage.primary_sa
            else (PrePrepare, Prepare, Commit) if usage.all_phases
            else (PrePrepare,))

    def _access(self, batch_digest: bytes) -> None:
        self.trusted.counter_append(0, None, batch_digest)
        if self.usage.primary_sa:
            self.charge(self.costs.ds_sign_us)

    def _accesses_every_phase(self) -> bool:
        usage = self.usage
        return usage.all_phases and (usage.all_replicas or self.is_primary)

    def order(self, batch_digest):
        if self.usage.primary_tc:
            self._access(batch_digest)
        return super().order(batch_digest)

    def bind(self, kind, seq, batch_digest, proposal):
        if (self.usage.all_replicas if kind == PREPARE
                else self._accesses_every_phase()):
            self._access(batch_digest)
        return super().bind(kind, seq, batch_digest, proposal)

    def mark_committed(self, seq, batch, view) -> None:
        if self._accesses_every_phase() and not self.instance(seq, view).committed:
            self._access(batch.digest())
        super().mark_committed(seq, batch, view)

    def dispatch(self, payload, source) -> None:
        # Verifying the attestation is the handler's CPU, not part of the
        # inbound verification job queued ahead of it; a message below the
        # low watermark reaches no handler and verifies nothing.
        if (payload.__class__ in self._attested_kinds
                and not self.below_low_watermark(payload.seq)):
            self.charge(self.costs.attestation_verify_us)
        super().dispatch(payload, source)

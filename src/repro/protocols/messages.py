"""Protocol messages shared by every consensus implementation.

Message names follow the paper: ``Preprepare``, ``Prepare``, ``Commit``,
``Response``, ``Checkpoint``, ``ViewChange``, ``NewView``.  Speculative
protocols (Zyzzyva, MinZZ) additionally use a client-driven
``CommitCertificate`` / ``CommitAck`` pair for their slow path.

Each message exposes ``signed_part()`` — the fields covered by the sender's
digital signature.  Signatures cover digests rather than full payloads (the
batch digest already commits to every request), which mirrors how ResilientDB
signs message headers.
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import sha256
from typing import Optional

from ..common.types import ClientId, ReplicaId, RequestId, SeqNum, ViewNum
from ..crypto.digest import (
    canonical_cacheable,
    combine_digests,
    drop_whole_value_caches,
    encode_fixed_attrs,
    encode_fixed_key_dict,
    pinned,
    stores_fields,
)
from ..crypto.signatures import Signature
from ..execution.state_machine import Operation, OperationResult
from ..net.wire import wire_serializable
from ..trusted.attestation import Attestation


def signed_part_bytes(message) -> bytes:
    """Canonical encoding of ``message.signed_part()``, memoised per instance.

    A message is signed once but its signed part is re-encoded on every
    verification — and the same delivered object is verified by many
    receivers.  ``signed_part()`` never covers the ``signature`` field, so
    the cache stays valid on signed copies produced by
    :func:`with_signature`, which is how the encoding computed at signing
    time reaches every verifier for free.

    Cache misses encode through a per-class generated encoder,
    byte-identical to ``canonical_bytes(message.signed_part())``.  Classes
    whose signed part is a plain projection of their fields declare
    ``SIGNED_FIELDS`` and are encoded straight off the instance
    (:func:`~repro.crypto.digest.encode_fixed_attrs`) without materialising
    the dict; classes with derived entries (digest tuples, computed
    payloads) keep building the dict, encoded for its fixed key set
    (:func:`~repro.crypto.digest.encode_fixed_key_dict`).
    """
    cached = message.__dict__.get("_signed_part_bytes")
    if cached is None:
        cls = type(message)
        names = cls.__dict__.get("SIGNED_FIELDS")
        if names is not None:
            cached = encode_fixed_attrs(cls, names, message)
        else:
            cached = encode_fixed_key_dict(cls, message.signed_part())
        object.__setattr__(message, "_signed_part_bytes", cached)
    return cached


def signed_fields_part(message) -> dict:
    """The signed part of a message that signs a projection of its fields.

    A class declares the projection once, as ``SIGNED_FIELDS``, and binds
    this function as its ``signed_part``; :func:`signed_part_bytes` encodes
    the same names straight off the instance.
    """
    return {name: getattr(message, name) for name in message.SIGNED_FIELDS}


def with_signature(message, signature: Signature):
    """Copy of a frozen message carrying ``signature``.

    Equivalent to ``dataclasses.replace(message, signature=signature)`` but
    keeps the memoised signature-exempt caches (signed-part bytes, payload
    and batch digests) on the copy; only the whole-value encoding caches —
    which cover the signature field — are dropped.
    """
    if "signature" not in type(message).__dataclass_fields__:
        # Same contract as dataclasses.replace: a message type without a
        # signature field must fail loudly, not carry a non-field attribute
        # that encoding and equality would silently ignore.
        raise TypeError(
            f"{type(message).__name__} has no 'signature' field to replace")
    clone = object.__new__(type(message))
    state = dict(message.__dict__)
    drop_whole_value_caches(state)
    state["signature"] = signature
    clone.__dict__.update(state)
    return clone


def sign_in_place(message, signature: Signature):
    """Attach ``signature`` to a freshly built, unshared message.

    Same result as :func:`with_signature` but without the clone.  Only
    valid when the caller constructed ``message`` in the same expression
    and nothing else can hold a reference yet: mutating a message that has
    been sent, stored, or encoded would desynchronise whole-value caches
    and equality comparisons held elsewhere.  The message must not carry a
    signature yet.
    """
    if "signature" not in type(message).__dataclass_fields__:
        raise TypeError(
            f"{type(message).__name__} has no 'signature' field to set")
    object.__setattr__(message, "signature", signature)
    return message


# --------------------------------------------------------------------- client
@wire_serializable
@canonical_cacheable
@stores_fields
@dataclass(frozen=True)
class ClientRequest:
    """A signed client transaction ``⟨T⟩_c`` (possibly several operations)."""

    request_id: RequestId
    operations: tuple[Operation, ...]
    signature: Optional[Signature] = None

    PAYLOAD_FIELDS = ("request_id", "operations")

    @property
    def client(self) -> ClientId:
        """The issuing client's identity."""
        return self.request_id.client

    def payload_digest(self) -> bytes:
        """Digest of the transaction (what the primary hashes as ``Δ``).

        The digest of ``{"request_id": …, "operations": …}``, memoised: it
        is computed when the request is first batched or signed and reused
        on every later batch hash and re-verification.
        """
        cached = self.__dict__.get("_payload_digest")
        if cached is None:
            cached = sha256(encode_fixed_attrs(
                ClientRequest, self.PAYLOAD_FIELDS, self)).digest()
            object.__setattr__(self, "_payload_digest", cached)
        return cached

    def signed_part(self) -> dict:
        return {"request_id": self.request_id,
                "digest": self.payload_digest()}


@wire_serializable
@canonical_cacheable
@stores_fields
@dataclass(frozen=True)
class RequestBatch:
    """A batch of client requests ordered as one consensus decision."""

    requests: tuple[ClientRequest, ...]

    def digest(self) -> bytes:
        """Digest committing to every request in order (memoised)."""
        return pinned(self, "_batch_digest",
                      lambda: combine_digests(*(req.payload_digest()
                                                for req in self.requests)))

    def __len__(self) -> int:
        return len(self.requests)


@wire_serializable
@canonical_cacheable
@stores_fields
@dataclass(frozen=True)
class Response:
    """Reply from a replica to a client for one request."""

    request_id: RequestId
    seq: SeqNum
    view: ViewNum
    replica: ReplicaId
    result: OperationResult
    result_digest: bytes
    speculative: bool = False
    signature: Optional[Signature] = None

    SIGNED_FIELDS = ("request_id", "seq", "view", "result_digest")

    signed_part = signed_fields_part

    def match_key(self) -> tuple:
        """What must be identical across replies for the client to accept."""
        return (self.request_id, self.seq, self.view, self.result_digest)


def reply_to(request: ClientRequest, seq: SeqNum, view: ViewNum,
             replica: ReplicaId, result: OperationResult,
             result_digest: bytes, speculative: bool = False) -> Response:
    """An unsigned reply to ``request``, its signed part encoded once.

    Every replica answering ``request`` signs the same ``request_id, seq,
    view, result_digest`` bytes, and on the simulator they all hold the one
    request object the primary's batch carried.  The first reply built pins
    ``(seq, view, result_digest, bytes)`` on that request; a later reply
    reuses the bytes only when all three match, and is encoded afresh
    (re-pinning) otherwise.
    """
    reply = Response(request.request_id, seq, view, replica, result,
                     result_digest, speculative)
    shared = request.__dict__.get("_reply_signed_part")
    if (shared is not None and shared[0] == seq and shared[1] == view
            and shared[2] == result_digest):
        object.__setattr__(reply, "_signed_part_bytes", shared[3])
    else:
        object.__setattr__(request, "_reply_signed_part", (
            seq, view, result_digest, signed_part_bytes(reply)))
    return reply


@wire_serializable
@canonical_cacheable
@dataclass(frozen=True)
class ResendRequest:
    """A client re-broadcasting a request it never got enough replies for."""

    request: ClientRequest


# ------------------------------------------------------------------ consensus
@wire_serializable
@canonical_cacheable
@stores_fields
@dataclass(frozen=True)
class PrePrepare:
    """The primary's proposal binding a batch to a sequence number."""

    view: ViewNum
    seq: SeqNum
    batch: RequestBatch
    batch_digest: bytes
    primary: ReplicaId
    attestation: Optional[Attestation] = None
    signature: Optional[Signature] = None

    SIGNED_FIELDS = ("view", "seq", "batch_digest", "primary")

    signed_part = signed_fields_part


@wire_serializable
@canonical_cacheable
@stores_fields
@dataclass(frozen=True)
class Prepare:
    """A replica's vote supporting a (sequence number, batch) pairing."""

    view: ViewNum
    seq: SeqNum
    batch_digest: bytes
    replica: ReplicaId
    attestation: Optional[Attestation] = None
    signature: Optional[Signature] = None

    SIGNED_FIELDS = ("view", "seq", "batch_digest", "replica")

    signed_part = signed_fields_part


@wire_serializable
@canonical_cacheable
@stores_fields
@dataclass(frozen=True)
class Commit:
    """A replica's vote that a batch is prepared and may be committed."""

    view: ViewNum
    seq: SeqNum
    batch_digest: bytes
    replica: ReplicaId
    attestation: Optional[Attestation] = None
    signature: Optional[Signature] = None

    SIGNED_FIELDS = ("view", "seq", "batch_digest", "replica")

    signed_part = signed_fields_part


# --------------------------------------------------------- speculative paths
@wire_serializable
@canonical_cacheable
@dataclass(frozen=True)
class CommitCertificate:
    """Client-assembled proof that enough replicas speculatively executed.

    Zyzzyva / MinZZ slow path: when a client cannot collect replies from every
    replica, it broadcasts the certificate formed from the matching replies it
    did receive; replicas acknowledge, and f + 1 acknowledgements complete the
    request.
    """

    request_id: RequestId
    seq: SeqNum
    view: ViewNum
    result_digest: bytes
    responders: tuple[ReplicaId, ...]


@wire_serializable
@canonical_cacheable
@stores_fields
@dataclass(frozen=True)
class CommitAck:
    """A replica's acknowledgement of a client commit certificate."""

    request_id: RequestId
    seq: SeqNum
    view: ViewNum
    replica: ReplicaId
    result_digest: bytes
    signature: Optional[Signature] = None

    SIGNED_FIELDS = ("request_id", "seq", "view", "result_digest")

    signed_part = signed_fields_part

    def match_key(self) -> tuple:
        return (self.request_id, self.seq, self.result_digest)


# ----------------------------------------------------------------- liveness
@wire_serializable
@canonical_cacheable
@stores_fields
@dataclass(frozen=True)
class Checkpoint:
    """Periodic state digest exchanged to garbage-collect logs."""

    seq: SeqNum
    state_digest: bytes
    replica: ReplicaId
    attestation: Optional[Attestation] = None
    signature: Optional[Signature] = None

    SIGNED_FIELDS = ("seq", "state_digest", "replica")

    signed_part = signed_fields_part


@wire_serializable
@canonical_cacheable
@dataclass(frozen=True)
class PreparedProof:
    """Evidence carried in a ViewChange that a batch was prepared/executed."""

    view: ViewNum
    seq: SeqNum
    batch: RequestBatch
    batch_digest: bytes
    attestation: Optional[Attestation] = None
    prepare_count: int = 0


@wire_serializable
@canonical_cacheable
@dataclass(frozen=True)
class ViewChange:
    """A replica's vote to move to ``new_view`` with its protocol evidence."""

    new_view: ViewNum
    replica: ReplicaId
    last_stable_seq: SeqNum
    prepared: tuple[PreparedProof, ...]
    signature: Optional[Signature] = None

    def signed_part(self) -> dict:
        return {"new_view": self.new_view, "replica": self.replica,
                "last_stable_seq": self.last_stable_seq,
                "prepared_digests": tuple((p.seq, p.batch_digest)
                                          for p in self.prepared)}


@wire_serializable
@canonical_cacheable
@dataclass(frozen=True)
class NewView:
    """The new primary's start-of-view message with re-proposals."""

    view: ViewNum
    primary: ReplicaId
    view_change_replicas: tuple[ReplicaId, ...]
    proposals: tuple[PrePrepare, ...]
    signature: Optional[Signature] = None

    def signed_part(self) -> dict:
        return {"view": self.view, "primary": self.primary,
                "view_change_replicas": self.view_change_replicas,
                "proposal_digests": tuple((p.seq, p.batch_digest)
                                          for p in self.proposals)}


# ------------------------------------------------------------ state transfer
@wire_serializable
@canonical_cacheable
@dataclass(frozen=True)
class CheckpointRequest:
    """A restarted or lagging replica asking its peers for catch-up state."""

    replica: ReplicaId
    last_executed: SeqNum
    round: int = 1
    signature: Optional[Signature] = None

    SIGNED_FIELDS = ("replica", "last_executed", "round")

    signed_part = signed_fields_part


@wire_serializable
@dataclass(frozen=True)
class CheckpointReply:
    """A peer's latest stable checkpoint plus where its log currently ends.

    ``snapshot`` carries the state-machine snapshot taken at
    ``checkpoint_seq`` (``None`` when the peer has no stable checkpoint yet).
    ``certificate`` carries the ``f + 1`` signed :class:`Checkpoint` votes
    that stabilised it: a reply with a valid certificate is self-certifying,
    otherwise the requester waits until ``f + 1`` replies independently agree
    on ``(checkpoint_seq, state_digest)`` — either way, one lying peer cannot
    poison the rejoiner's state.
    """

    replica: ReplicaId
    checkpoint_seq: SeqNum
    state_digest: bytes
    last_executed: SeqNum
    view: ViewNum
    snapshot: Optional[object] = None
    certificate: tuple[Checkpoint, ...] = ()
    signature: Optional[Signature] = None

    SIGNED_FIELDS = ("replica", "checkpoint_seq", "state_digest",
                     "last_executed", "view")

    signed_part = signed_fields_part


@wire_serializable
@canonical_cacheable
@dataclass(frozen=True)
class LogFillEntry:
    """One decided batch a peer replays to a recovering replica."""

    seq: SeqNum
    view: ViewNum
    batch: RequestBatch
    batch_digest: bytes


@wire_serializable
@canonical_cacheable
@dataclass(frozen=True)
class LogFill:
    """Decided batches above the checkpoint, replayed peer-to-peer."""

    replica: ReplicaId
    entries: tuple[LogFillEntry, ...]
    signature: Optional[Signature] = None

    def signed_part(self) -> dict:
        return {"replica": self.replica,
                "entry_digests": tuple((e.seq, e.batch_digest)
                                       for e in self.entries)}


#: A batch of no-op requests used by new primaries to fill sequence gaps.
NOOP_REQUEST = ClientRequest(
    request_id=RequestId(client="__noop__", number=0),
    operations=(Operation(action="noop", key="__noop__"),),
)


def noop_batch() -> RequestBatch:
    """A batch containing a single no-op request."""
    return RequestBatch(requests=(NOOP_REQUEST,))

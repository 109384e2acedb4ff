"""Fundamental identifiers and enumerations shared across the library.

The paper's system model (Section 2) talks about a replicated service ``S``
with ``n`` replicas of which ``f`` may be byzantine, a set of clients, views
led by a primary, and sequence numbers assigned to transactions.  The aliases
and enums in this module give those concepts concrete, typed names so that the
rest of the code base reads close to the paper's notation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..crypto.digest import canonical_cacheable, stores_fields

# A replica is identified by a small non-negative integer, exactly like the
# paper's "replica with identifier i" used for round-robin primary rotation.
ReplicaId = int

# Clients are identified by strings such as ``"client-17"`` so that replica and
# client identifier spaces can never collide.
ClientId = str

# Sequence numbers, views and counter values are plain integers.
SeqNum = int
ViewNum = int
CounterValue = int

# Simulated time is measured in microseconds (floats).  Microseconds keep the
# crypto cost model (fractions of a microsecond per MAC) and the trusted
# hardware latencies (tens of milliseconds for TPMs) in a comfortable range.
Micros = float

MICROS_PER_MS = 1_000.0
MICROS_PER_SECOND = 1_000_000.0


def ms(value: float) -> Micros:
    """Convert milliseconds to simulated microseconds."""
    return value * MICROS_PER_MS


def seconds(value: float) -> Micros:
    """Convert seconds to simulated microseconds."""
    return value * MICROS_PER_SECOND


class FaultKind(enum.Enum):
    """How a replica misbehaves, if at all.

    ``HONEST`` replicas follow their protocol.  ``CRASHED`` replicas stop
    sending or processing messages.  ``BYZANTINE`` replicas are driven by an
    adversary strategy object that may equivocate, selectively send messages,
    or roll back their trusted component (when the hardware model allows it).
    """

    HONEST = "honest"
    CRASHED = "crashed"
    BYZANTINE = "byzantine"


@canonical_cacheable
@stores_fields(memoise_hash=True)
@dataclass(frozen=True)
class RequestId:
    """Globally unique identifier of a client request.

    Clients number their own requests; the pair (client, client-local number)
    uniquely identifies a transaction across the whole deployment and is what
    replicas use for reply deduplication.  Canonically cacheable: the same
    instance is encoded inside every message that references the request
    (request, pre-prepare batch, n replica responses), so the encode-once
    cache pays for itself many times over per transaction.  For the same
    reason its hash is memoised at construction — ids key every dedup set
    and reply cache, about 25 lookups per request — and equality starts
    with identity, which is how the shared instance compares to itself.
    """

    client: ClientId
    number: int

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if other.__class__ is self.__class__:
            return self.client == other.client and self.number == other.number
        return NotImplemented

    def __str__(self) -> str:
        # Memoised like the canonical encoding: ledgers and tracers stringify
        # the same (shared) id once per replica that executes the request.
        cached = self.__dict__.get("_str")
        if cached is None:
            cached = f"{self.client}#{self.number}"
            object.__setattr__(self, "_str", cached)
        return cached

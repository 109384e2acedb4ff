"""Protocol registry: the ten protocols of Section 9.2, one line each.

A protocol is declared by two choices: its replica class in
:mod:`repro.protocols.family` (a phase count on top of a trusted binding) and
whether its consensus invocations run one at a time.  Everything else the
library needs follows from those, by the paper's own rules:

* n = 2f + 1 when every replica binds what it sends to its own trusted
  component (Section 4: :class:`OwnCounterBinding`, :class:`OwnLogBinding`),
  3f + 1 otherwise — and :func:`quorum` of that n decides every phase;
* a client completes on f + 1 matching replies, unless the protocol is
  speculative (one phase): then on a quorum when only the primary's proposal
  is attested (Section 8.3), else on all n, with a slow path behind it;
* the Figure 1 columns (:mod:`repro.core.analysis`).

The ten names are Pbft, Zyzzyva, Pbft-EA, Opbft-ea, MinBFT, MinZZ, Flexi-BFT,
Flexi-ZZ, and the sequential ablations oFlexi-BFT / oFlexi-ZZ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..common.errors import ConfigurationError
from .base import quorum
from .family import (FlexiBftReplica, FlexiZzReplica, MinBftReplica,
                     MinZzReplica, NormalCaseReplica, OpbftEaReplica,
                     OwnCounterBinding, OwnLogBinding, PbftEaReplica,
                     PbftReplica, PrimaryOnlyBinding, ZyzzyvaReplica)


@dataclass(frozen=True)
class ReplyPolicy:
    """How a client decides a request is complete.

    ``fast_quorum`` matching replies complete it.  A protocol whose fast path
    needs every replica (Zyzzyva, MinZZ) has a slow path: once a client holds
    ``slow_quorum`` matching replies it broadcasts them as a commit
    certificate, and ``slow_quorum`` acknowledgements complete the request.
    """

    fast_quorum: int
    #: commit-certificate and acknowledgement size; None: no slow path.
    slow_quorum: Optional[int] = None


@dataclass(frozen=True)
class ProtocolSpec:
    """One protocol: its replica class and whether consensus is sequential."""

    name: str
    display_name: str
    replica_class: type[NormalCaseReplica]
    #: consensus invocations run one at a time (the deployment pins
    #: ``max_outstanding`` to 1): Section 7's trust-bft protocols, and the
    #: oFlexi ablations of the Flexi classes.
    sequential: bool = False

    @property
    def phases(self) -> int:
        """Rounds per consensus instance, as the replica class declares them."""
        return self.replica_class.phases

    @property
    def uses_trusted(self) -> bool:
        """Whether the protocol uses trusted components at all."""
        return self.replica_class.attested

    @property
    def trusted_at_all_replicas(self) -> bool:
        """Every replica binds what it sends to its own trusted component."""
        return issubclass(self.replica_class, (OwnCounterBinding, OwnLogBinding))

    @property
    def only_primary_tc(self) -> bool:
        """Only the primary's proposal touches trusted hardware (Section 8.1)."""
        return issubclass(self.replica_class, PrimaryOnlyBinding)

    def replicas(self, f: int) -> int:
        """Number of replicas deployed for fault threshold ``f``."""
        return 2 * f + 1 if self.trusted_at_all_replicas else 3 * f + 1

    def reply_policy(self, n: int, f: int) -> ReplyPolicy:
        """What a client of ``n`` replicas tolerating ``f`` waits for."""
        if self.phases != 1:
            return ReplyPolicy(fast_quorum=f + 1)
        if self.only_primary_tc:
            return ReplyPolicy(fast_quorum=quorum(n, f))
        return ReplyPolicy(fast_quorum=n, slow_quorum=quorum(n, f))


PROTOCOLS: dict[str, ProtocolSpec] = {spec.name: spec for spec in (
    ProtocolSpec("pbft", "Pbft", PbftReplica),
    ProtocolSpec("zyzzyva", "Zyzzyva", ZyzzyvaReplica),
    ProtocolSpec("pbft-ea", "Pbft-EA", PbftEaReplica, sequential=True),
    ProtocolSpec("opbft-ea", "Opbft-ea", OpbftEaReplica),
    ProtocolSpec("minbft", "MinBFT", MinBftReplica, sequential=True),
    ProtocolSpec("minzz", "MinZZ", MinZzReplica, sequential=True),
    ProtocolSpec("flexi-bft", "Flexi-BFT", FlexiBftReplica),
    ProtocolSpec("flexi-zz", "Flexi-ZZ", FlexiZzReplica),
    ProtocolSpec("oflexi-bft", "oFlexi-BFT", FlexiBftReplica, sequential=True),
    ProtocolSpec("oflexi-zz", "oFlexi-ZZ", FlexiZzReplica, sequential=True),
)}


def get_protocol(name: str) -> ProtocolSpec:
    """Look up a protocol by its registry name (case-insensitive)."""
    key = name.lower()
    if key not in PROTOCOLS:
        raise ConfigurationError(
            f"unknown protocol {name!r}; known protocols: {sorted(PROTOCOLS)}")
    return PROTOCOLS[key]


def protocol_names() -> list[str]:
    """All registered protocol names."""
    return sorted(PROTOCOLS)

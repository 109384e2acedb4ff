"""Protocol registry: one :class:`ProtocolSpec` per evaluated protocol.

The spec captures everything the rest of the library needs to know about a
protocol without importing its replica class directly: how many replicas it
deploys for a given ``f``, whether replicas need trusted components, how many
matching replies a client must collect, whether consensus invocations run in
parallel, and the qualitative properties tabulated in the paper's Figure 1.

The ten registered protocols are exactly the ones in Section 9.2: Pbft,
Zyzzyva, Pbft-EA, Opbft-ea, MinBFT, MinZZ, Flexi-BFT, Flexi-ZZ, and the
sequential ablations oFlexi-BFT / oFlexi-ZZ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..common.errors import ConfigurationError
from ..common.types import ConsensusMode, ReplicationRegime, TrustedAbstraction, replicas_for
from .base import BaseReplica, ReplicaContext
from .family import (FlexiBftReplica, FlexiZzReplica, MinBftReplica,
                     MinZzReplica, NormalCaseReplica, OpbftEaReplica,
                     PbftEaReplica, PbftReplica, ZyzzyvaReplica)


@dataclass(frozen=True)
class ReplyPolicy:
    """How a client decides a request is complete.

    ``fast_quorum_rule`` is one of ``"f+1"``, ``"2f+1"`` or ``"n"``.  When the
    fast path needs every replica (Zyzzyva, MinZZ), a slow path exists: the
    client broadcasts a commit certificate once it holds ``cert_rule`` matching
    replies and completes after ``ack_rule`` acknowledgements.
    """

    fast_quorum_rule: str
    slow_path: bool = False
    cert_rule: str = "2f+1"
    ack_rule: str = "2f+1"

    def fast_quorum(self, n: int, f: int) -> int:
        return _quorum(self.fast_quorum_rule, n, f)

    def cert_size(self, n: int, f: int) -> int:
        return _quorum(self.cert_rule, n, f)

    def ack_quorum(self, n: int, f: int) -> int:
        return _quorum(self.ack_rule, n, f)


def _quorum(rule: str, n: int, f: int) -> int:
    if rule == "f+1":
        return f + 1
    if rule == "2f+1":
        return 2 * f + 1
    if rule == "n":
        return n
    raise ConfigurationError(f"unknown quorum rule {rule!r}")


@dataclass(frozen=True)
class ProtocolSpec:
    """Static description of one protocol."""

    name: str
    display_name: str
    replica_class: type[NormalCaseReplica]
    regime: ReplicationRegime
    trusted_abstraction: TrustedAbstraction
    consensus_mode: ConsensusMode
    reply_policy: ReplyPolicy
    #: does every replica need an active trusted component (vs. primary only)?
    trusted_at_all_replicas: bool
    #: Figure 1 columns.
    bft_liveness: bool
    out_of_order: bool
    trusted_memory: str
    only_primary_tc: bool

    def replicas(self, f: int) -> int:
        """Number of replicas deployed for fault threshold ``f``."""
        return replicas_for(self.regime, f)

    @property
    def phases(self) -> int:
        """Rounds per consensus instance, as the replica class declares them."""
        return self.replica_class.phases

    @property
    def uses_trusted(self) -> bool:
        """Whether the protocol uses trusted components at all."""
        return self.trusted_abstraction is not TrustedAbstraction.NONE

    def build_replica(self, replica_id: int, ctx: ReplicaContext) -> BaseReplica:
        """Instantiate one replica of this protocol."""
        return self.replica_class(replica_id, ctx)


PROTOCOLS: dict[str, ProtocolSpec] = {}


def _register(spec: ProtocolSpec) -> ProtocolSpec:
    PROTOCOLS[spec.name] = spec
    return spec


PBFT = _register(ProtocolSpec(
    name="pbft", display_name="Pbft", replica_class=PbftReplica,
    regime=ReplicationRegime.THREE_F_PLUS_ONE,
    trusted_abstraction=TrustedAbstraction.NONE,
    consensus_mode=ConsensusMode.PARALLEL,
    reply_policy=ReplyPolicy(fast_quorum_rule="f+1"),
    trusted_at_all_replicas=False, bft_liveness=True, out_of_order=True,
    trusted_memory="none", only_primary_tc=False))

ZYZZYVA = _register(ProtocolSpec(
    name="zyzzyva", display_name="Zyzzyva", replica_class=ZyzzyvaReplica,
    regime=ReplicationRegime.THREE_F_PLUS_ONE,
    trusted_abstraction=TrustedAbstraction.NONE,
    consensus_mode=ConsensusMode.PARALLEL,
    reply_policy=ReplyPolicy(fast_quorum_rule="n", slow_path=True,
                             cert_rule="2f+1", ack_rule="2f+1"),
    trusted_at_all_replicas=False, bft_liveness=True, out_of_order=True,
    trusted_memory="none", only_primary_tc=False))

PBFT_EA = _register(ProtocolSpec(
    name="pbft-ea", display_name="Pbft-EA", replica_class=PbftEaReplica,
    regime=ReplicationRegime.TWO_F_PLUS_ONE,
    trusted_abstraction=TrustedAbstraction.LOG,
    consensus_mode=ConsensusMode.SEQUENTIAL,
    reply_policy=ReplyPolicy(fast_quorum_rule="f+1"),
    trusted_at_all_replicas=True, bft_liveness=False, out_of_order=False,
    trusted_memory="high", only_primary_tc=False))

OPBFT_EA = _register(ProtocolSpec(
    name="opbft-ea", display_name="Opbft-ea", replica_class=OpbftEaReplica,
    regime=ReplicationRegime.TWO_F_PLUS_ONE,
    trusted_abstraction=TrustedAbstraction.LOG,
    consensus_mode=ConsensusMode.PARALLEL,
    reply_policy=ReplyPolicy(fast_quorum_rule="f+1"),
    trusted_at_all_replicas=True, bft_liveness=False, out_of_order=True,
    trusted_memory="high", only_primary_tc=False))

MINBFT = _register(ProtocolSpec(
    name="minbft", display_name="MinBFT", replica_class=MinBftReplica,
    regime=ReplicationRegime.TWO_F_PLUS_ONE,
    trusted_abstraction=TrustedAbstraction.COUNTER,
    consensus_mode=ConsensusMode.SEQUENTIAL,
    reply_policy=ReplyPolicy(fast_quorum_rule="f+1"),
    trusted_at_all_replicas=True, bft_liveness=False, out_of_order=False,
    trusted_memory="low", only_primary_tc=False))

MINZZ = _register(ProtocolSpec(
    name="minzz", display_name="MinZZ", replica_class=MinZzReplica,
    regime=ReplicationRegime.TWO_F_PLUS_ONE,
    trusted_abstraction=TrustedAbstraction.COUNTER,
    consensus_mode=ConsensusMode.SEQUENTIAL,
    reply_policy=ReplyPolicy(fast_quorum_rule="n", slow_path=True,
                             cert_rule="f+1", ack_rule="f+1"),
    trusted_at_all_replicas=True, bft_liveness=False, out_of_order=False,
    trusted_memory="low", only_primary_tc=False))

FLEXI_BFT = _register(ProtocolSpec(
    name="flexi-bft", display_name="Flexi-BFT", replica_class=FlexiBftReplica,
    regime=ReplicationRegime.THREE_F_PLUS_ONE,
    trusted_abstraction=TrustedAbstraction.COUNTER,
    consensus_mode=ConsensusMode.PARALLEL,
    reply_policy=ReplyPolicy(fast_quorum_rule="f+1"),
    trusted_at_all_replicas=False, bft_liveness=True, out_of_order=True,
    trusted_memory="low", only_primary_tc=True))

FLEXI_ZZ = _register(ProtocolSpec(
    name="flexi-zz", display_name="Flexi-ZZ", replica_class=FlexiZzReplica,
    regime=ReplicationRegime.THREE_F_PLUS_ONE,
    trusted_abstraction=TrustedAbstraction.COUNTER,
    consensus_mode=ConsensusMode.PARALLEL,
    reply_policy=ReplyPolicy(fast_quorum_rule="2f+1"),
    trusted_at_all_replicas=False, bft_liveness=True, out_of_order=True,
    trusted_memory="low", only_primary_tc=True))

O_FLEXI_BFT = _register(ProtocolSpec(
    name="oflexi-bft", display_name="oFlexi-BFT", replica_class=FlexiBftReplica,
    regime=ReplicationRegime.THREE_F_PLUS_ONE,
    trusted_abstraction=TrustedAbstraction.COUNTER,
    consensus_mode=ConsensusMode.SEQUENTIAL,
    reply_policy=ReplyPolicy(fast_quorum_rule="f+1"),
    trusted_at_all_replicas=False, bft_liveness=True, out_of_order=False,
    trusted_memory="low", only_primary_tc=True))

O_FLEXI_ZZ = _register(ProtocolSpec(
    name="oflexi-zz", display_name="oFlexi-ZZ", replica_class=FlexiZzReplica,
    regime=ReplicationRegime.THREE_F_PLUS_ONE,
    trusted_abstraction=TrustedAbstraction.COUNTER,
    consensus_mode=ConsensusMode.SEQUENTIAL,
    reply_policy=ReplyPolicy(fast_quorum_rule="2f+1"),
    trusted_at_all_replicas=False, bft_liveness=True, out_of_order=False,
    trusted_memory="low", only_primary_tc=True))

#: Names of the trust-bft protocols analysed in Sections 5–7.
TRUST_BFT_PROTOCOLS = ("pbft-ea", "minbft", "minzz")
#: Names of the traditional bft baselines.
BFT_PROTOCOLS = ("pbft", "zyzzyva")
#: Names of the paper's contributed protocols.
FLEXITRUST_PROTOCOLS = ("flexi-bft", "flexi-zz")


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

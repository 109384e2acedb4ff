"""Instrumented Pbft variants for the Figure 5 micro-benchmark.

Figure 5 measures how Pbft's throughput degrades as trusted-counter accesses
(TC) and signature attestations (SA) are grafted onto it, bar by bar:

====  =======================================================================
bar   configuration
====  =======================================================================
a     standard Pbft
b     primary accesses a trusted counter in the Preprepare phase
c     primary: trusted counter + signature attestation in Preprepare
d     primary: trusted counter + signature attestation in all three phases
e     all replicas: trusted counter in Preprepare
f     all replicas: trusted counter + signature attestation in Preprepare
g     all replicas: trusted counter + signature attestation in all phases
====  =======================================================================

:func:`instrumented_pbft_factory` returns a replica factory implementing one
bar; the experiment builds a deployment per bar with a single worker thread,
exactly like the paper's single-worker setup.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..protocols.base import ReplicaContext
from ..protocols.messages import Commit, PrePrepare, Prepare, RequestBatch
from ..protocols.family import PbftReplica


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


class InstrumentedPbftReplica(PbftReplica):
    """Pbft with configurable trusted-counter / attestation overhead."""

    protocol_name = "pbft-instrumented"
    usage: TrustedUsage = FIGURE5_BARS[0]

    # ------------------------------------------------------------ overheads
    def _trusted_access(self, payload_digest: bytes, signed: bool) -> None:
        """Perform one trusted access (and optionally attest = sign) now."""
        if self.trusted is not None:
            self.trusted.counter_append(0, None, payload_digest)
        if signed:
            self.charge(self.costs.ds_sign_us)

    # --------------------------------------------------------------- phases
    def propose_batch(self, batch: RequestBatch) -> None:
        if self.usage.primary_tc:
            self._trusted_access(batch.digest(), self.usage.primary_sa)
        super().propose_batch(batch)

    def on_preprepare(self, preprepare: PrePrepare, source: str) -> None:
        if self.usage.all_replicas:
            self._trusted_access(preprepare.batch_digest, self.usage.primary_sa)
        if self.usage.primary_sa:
            # The proposal now carries a trusted attestation the replica must
            # verify before accepting it.
            self.charge(self.costs.attestation_verify_us)
        super().on_preprepare(preprepare, source)

    def on_prepare(self, prepare: Prepare, source: str) -> None:
        if self.usage.all_phases and self.usage.primary_sa:
            # With attestations in every phase, each received vote carries one
            # more signature to verify (this is what saturates the primary).
            self.charge(self.costs.attestation_verify_us)
        inst = self.instance(prepare.seq, prepare.view)
        was_prepared = inst.prepared
        super().on_prepare(prepare, source)
        # Becoming prepared means this replica just sent its Commit vote; the
        # instrumented variants attest that outgoing message too.
        if (not was_prepared and inst.prepared and self.usage.all_phases
                and (self.usage.all_replicas or self.is_primary)):
            self._trusted_access(prepare.batch_digest, self.usage.primary_sa)

    def on_commit(self, commit: Commit, source: str) -> None:
        if self.usage.all_phases and self.usage.primary_sa:
            self.charge(self.costs.attestation_verify_us)
        inst = self.instance(commit.seq, commit.view)
        was_committed = inst.committed
        super().on_commit(commit, source)
        if (not was_committed and inst.committed and self.usage.all_phases
                and (self.usage.all_replicas or self.is_primary)):
            self._trusted_access(commit.batch_digest, self.usage.primary_sa)


def instrumented_pbft_factory(usage: TrustedUsage):
    """Replica factory building :class:`InstrumentedPbftReplica` for one bar."""

    class _Configured(InstrumentedPbftReplica):
        pass

    _Configured.usage = usage
    _Configured.__name__ = f"InstrumentedPbftReplica_{usage.label}"

    def factory(replica_id: int, ctx: ReplicaContext):
        return _Configured(replica_id, ctx)

    return factory

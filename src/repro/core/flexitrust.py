"""The FlexiTrust transformation (Section 8.1).

The paper's recipe for converting any trust-bft protocol into a FlexiTrust
protocol consists of three modifications:

1. **Component-chosen counter values** — replace ``Append(q, k, x)`` with
   ``AppendF(q, x)``: the trusted component increments internally, so sequence
   numbers stay contiguous and a byzantine primary cannot leave gaps.
2. **Trusted access at the primary only** — replicas merely verify the
   primary's attestation; they never touch their own trusted components on the
   critical path.
3. **Large quorums over 3f + 1 replicas** — every quorum grows to 2f + 1, so
   any two quorums intersect in an honest replica, restoring responsiveness
   and making per-replica trusted logging unnecessary.

The code that *runs* the recipe is the difference between two classes of
:mod:`repro.protocols.family`: ``OwnCounterBinding`` (every replica binds what
it sends to its own counter; MinBFT, MinZZ) and ``PrimaryOnlyBinding`` (one
``AppendF`` at the primary, carried along by the votes; Flexi-BFT, Flexi-ZZ).
``MinBftReplica`` and ``FlexiBftReplica`` declare the same two phases on top
of one and the other, and the larger quorum follows from ``n``.

:func:`transform` describes the same recipe at the level of the protocol
registry: given a trust-bft protocol it returns the FlexiTrust protocol the
paper derives from it, together with a record of what changed.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.errors import ConfigurationError
from ..protocols.registry import PROTOCOLS, ProtocolSpec, get_protocol

#: trust-bft protocol -> its FlexiTrust counterpart, as derived in Section 8.
_TRANSFORMATIONS = {
    "minbft": "flexi-bft",
    "pbft-ea": "flexi-bft",
    "opbft-ea": "flexi-bft",
    "minzz": "flexi-zz",
}


@dataclass(frozen=True)
class TransformationStep:
    """One of the three FlexiTrust modifications, applied to a protocol."""

    name: str
    before: str
    after: str


@dataclass(frozen=True)
class Transformation:
    """Result of applying the FlexiTrust recipe to a trust-bft protocol."""

    source: ProtocolSpec
    target: ProtocolSpec
    steps: tuple[TransformationStep, ...]

    def summary(self) -> str:
        """Human-readable description of the conversion."""
        lines = [f"{self.source.display_name}  →  {self.target.display_name}"]
        for step in self.steps:
            lines.append(f"  - {step.name}: {step.before} → {step.after}")
        return "\n".join(lines)


def transformable_protocols() -> list[str]:
    """Names of trust-bft protocols the recipe applies to."""
    return sorted(_TRANSFORMATIONS)


def transform(protocol: str) -> Transformation:
    """Apply the FlexiTrust recipe to a trust-bft protocol.

    Raises :class:`ConfigurationError` when the protocol is not a 2f+1
    trust-bft protocol (there is nothing to transform for Pbft or Zyzzyva,
    and the FlexiTrust protocols are already transformed).
    """
    source = get_protocol(protocol)
    if not source.trusted_at_all_replicas:
        raise ConfigurationError(
            f"{source.display_name} is not a 2f+1 trust-bft protocol; the "
            "FlexiTrust transformation does not apply")
    target = PROTOCOLS[_TRANSFORMATIONS[source.name]]
    steps = (
        TransformationStep(
            name="counter API",
            before="Append(q, k, x): caller supplies the counter value",
            after="AppendF(q, x): the component increments internally"),
        TransformationStep(
            name="trusted accesses",
            before="every replica, once per outgoing message",
            after="primary only, once per consensus invocation"),
        TransformationStep(
            name="replication and quorums",
            before=f"n = 2f+1, quorums of f+1 ({source.display_name})",
            after=f"n = 3f+1, quorums of 2f+1 ({target.display_name})"),
    )
    return Transformation(source=source, target=target, steps=steps)


def trusted_accesses_per_batch(spec: ProtocolSpec, n: int) -> int:
    """Trusted-hardware operations one batch costs under ``spec``.

    FlexiTrust protocols: exactly one (the primary's AppendF).  trust-bft
    protocols: every replica binds each message it sends — the proposal at the
    primary, the Prepare (or speculative reply) at a backup, and everyone's
    Commit when the protocol has a Commit phase — so one per replica, two with
    three phases.  Protocols without trusted components: zero.
    """
    if not spec.uses_trusted:
        return 0
    if spec.only_primary_tc:
        return 1
    return n * max(1, spec.phases - 1)

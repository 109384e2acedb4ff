"""Global safety and liveness monitor.

The monitor is *outside* the system model: it sees what every replica executes
and what every client completes, and checks the paper's Section 2 guarantees:

* **Consensus safety** — no two honest replicas execute different transaction
  batches at the same sequence number.
* **RSM safety** — honest replicas that executed the same sequence prefix hold
  identical state digests.
* **RSM liveness / responsiveness** — every client request eventually
  completes at the client (the Section 5 attack makes exactly this fail while
  consensus liveness still holds).

Violations are recorded rather than raised by default so experiments (the
rollback attack deliberately creates one) can inspect them afterwards; strict
mode raises immediately, which is what the integration tests use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..common.errors import SafetyViolation
from ..common.types import Micros, ReplicaId, SeqNum, ViewNum


@dataclass(frozen=True)
class ExecutionRecord:
    """One replica's execution of one sequence number."""

    replica: ReplicaId
    seq: SeqNum
    view: ViewNum
    batch_digest: bytes
    time_us: Micros


@dataclass(frozen=True)
class Violation:
    """A detected violation of a safety property."""

    kind: str
    description: str
    seq: Optional[SeqNum] = None
    replicas: tuple[ReplicaId, ...] = ()


@dataclass
class SafetyMonitor:
    """Records executions and flags divergence among honest replicas."""

    honest_replicas: frozenset[ReplicaId]
    strict: bool = False
    executions: dict[SeqNum, dict[ReplicaId, ExecutionRecord]] = field(
        default_factory=dict)
    rolled_back: dict[SeqNum, set[ReplicaId]] = field(default_factory=dict)
    violations: list[Violation] = field(default_factory=list)

    # ---------------------------------------------------------- executions
    def record_execution(self, replica: ReplicaId, seq: SeqNum, view: ViewNum,
                         batch_digest: bytes, time_us: Micros) -> None:
        """Record that ``replica`` executed ``batch_digest`` at ``seq``.

        Only honest replicas are checked against each other: byzantine
        replicas may claim anything, and the paper's safety definitions only
        constrain honest ones.
        """
        record = ExecutionRecord(replica=replica, seq=seq, view=view,
                                 batch_digest=batch_digest, time_us=time_us)
        per_seq = self.executions.setdefault(seq, {})
        per_seq[replica] = record
        self.rolled_back.get(seq, set()).discard(replica)
        if replica not in self.honest_replicas:
            return
        for other_id, other in per_seq.items():
            if other_id == replica or other_id not in self.honest_replicas:
                continue
            if other_id in self.rolled_back.get(seq, set()):
                continue
            if other.batch_digest != batch_digest:
                self._flag(Violation(
                    kind="consensus-safety",
                    description=(
                        f"replicas {other_id} and {replica} executed different "
                        f"batches at sequence {seq}"),
                    seq=seq,
                    replicas=(other_id, replica),
                ))

    def record_rollback(self, replica: ReplicaId, seq: SeqNum) -> None:
        """Record that a replica rolled back a speculative execution.

        A rolled-back execution no longer counts for divergence checks: the
        replica explicitly abandoned it (legal in Flexi-ZZ / MinZZ before the
        client saw a full quorum of replies).
        """
        self.rolled_back.setdefault(seq, set()).add(replica)
        per_seq = self.executions.get(seq)
        if per_seq is not None:
            per_seq.pop(replica, None)

    def record_state_digest(self, replica: ReplicaId, seq: SeqNum,
                            state_digest: bytes) -> None:
        """Check RSM safety: equal prefixes must yield equal states."""
        key = ("state", seq)
        per_seq = self.executions.setdefault(key, {})  # type: ignore[arg-type]
        record = ExecutionRecord(replica=replica, seq=seq, view=0,
                                 batch_digest=state_digest, time_us=0.0)
        per_seq[replica] = record
        if replica not in self.honest_replicas:
            return
        for other_id, other in per_seq.items():
            if other_id == replica or other_id not in self.honest_replicas:
                continue
            if other.batch_digest != state_digest:
                self._flag(Violation(
                    kind="rsm-safety",
                    description=(
                        f"replicas {other_id} and {replica} diverge in state "
                        f"after sequence {seq}"),
                    seq=seq,
                    replicas=(other_id, replica),
                ))

    # ------------------------------------------------------------- results
    @property
    def consensus_safe(self) -> bool:
        """True when no consensus-safety violation has been recorded."""
        return not any(v.kind == "consensus-safety" for v in self.violations)

    @property
    def rsm_safe(self) -> bool:
        """True when no RSM-safety violation has been recorded."""
        return not any(v.kind == "rsm-safety" for v in self.violations)

    def honest_executions_at(self, seq: SeqNum) -> dict[ReplicaId, ExecutionRecord]:
        """Execution records from honest replicas only."""
        return {rid: rec for rid, rec in self.executions.get(seq, {}).items()
                if rid in self.honest_replicas}

    def distinct_digests_at(self, seq: SeqNum) -> set[bytes]:
        """Distinct batch digests honest replicas executed at ``seq``."""
        return {rec.batch_digest
                for rec in self.honest_executions_at(seq).values()}

    def _flag(self, violation: Violation) -> None:
        self.violations.append(violation)
        if self.strict:
            raise SafetyViolation(violation.description)

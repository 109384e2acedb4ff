"""Per-replica ledger of executed batches and checkpoint bookkeeping.

Each replica appends every executed batch (sequence number, batch digest,
per-request results) to its ledger.  The ledger also tracks the last stable
checkpoint so the protocols can truncate message logs, and supports rollback
of speculative executions — Flexi-ZZ and MinZZ may execute a request before it
is durable, and a view change can force them to undo it (Section 8.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..common.types import Micros, SeqNum
from ..crypto.digest import stores_fields
from .state_machine import OperationResult


@stores_fields
@dataclass(frozen=True)
class ExecutedBatch:
    """A batch the replica has executed at a given sequence number."""

    seq: SeqNum
    batch_digest: bytes
    request_ids: tuple[str, ...]
    results: tuple[OperationResult, ...]
    executed_at: Micros
    speculative: bool = False


@dataclass
class Ledger:
    """Ordered record of executed batches at one replica."""

    entries: dict[SeqNum, ExecutedBatch] = field(default_factory=dict)
    last_executed: SeqNum = 0
    stable_checkpoint: SeqNum = 0
    state_snapshots: dict[SeqNum, object] = field(default_factory=dict)
    checkpoint_digests: dict[SeqNum, bytes] = field(default_factory=dict)

    def record(self, batch: ExecutedBatch) -> None:
        """Record an executed batch; sequence numbers must be contiguous."""
        self.entries[batch.seq] = batch
        if batch.seq == self.last_executed + 1:
            self.last_executed = batch.seq
            # Absorb any previously recorded out-of-order entries.
            while self.last_executed + 1 in self.entries:
                self.last_executed += 1

    def executed(self, seq: SeqNum) -> bool:
        """Whether a batch was executed at ``seq``."""
        return seq in self.entries

    def entry(self, seq: SeqNum) -> Optional[ExecutedBatch]:
        """The executed batch at ``seq`` if any."""
        return self.entries.get(seq)

    def executed_since(self, seq: SeqNum) -> list[ExecutedBatch]:
        """All executed batches with sequence number greater than ``seq``."""
        return [self.entries[s] for s in sorted(self.entries) if s > seq]

    def mark_stable(self, seq: SeqNum) -> None:
        """Advance the stable checkpoint (never backwards)."""
        self.stable_checkpoint = max(self.stable_checkpoint, seq)

    def truncate_below(self, seq: SeqNum) -> int:
        """Drop entries at or below ``seq`` (after a stable checkpoint)."""
        to_drop = [s for s in self.entries if s <= seq]
        for s in to_drop:
            del self.entries[s]
        for s in [s for s in self.state_snapshots if s < seq]:
            del self.state_snapshots[s]
        for s in [s for s in self.checkpoint_digests if s < seq]:
            del self.checkpoint_digests[s]
        return len(to_drop)

    def rollback_to(self, seq: SeqNum) -> list[ExecutedBatch]:
        """Undo every executed batch above ``seq`` (speculative execution).

        Returns the removed batches, newest first, so the caller can restore
        the state machine from the snapshot taken at ``seq``.
        """
        removed = [self.entries.pop(s) for s in sorted(self.entries, reverse=True)
                   if s > seq]
        self.last_executed = min(self.last_executed, seq)
        return removed

    def store_snapshot(self, seq: SeqNum, snapshot: object) -> None:
        """Remember a state-machine snapshot taken after executing ``seq``."""
        self.state_snapshots[seq] = snapshot

    def snapshot_at(self, seq: SeqNum) -> Optional[object]:
        """The stored snapshot for ``seq`` if any."""
        return self.state_snapshots.get(seq)

    def record_checkpoint_digest(self, seq: SeqNum, digest: bytes) -> None:
        """Remember the state digest taken at checkpoint ``seq``.

        Replicas serve it in ``CheckpointReply`` so a rejoiner can match
        snapshots against an ``f + 1`` digest quorum.
        """
        self.checkpoint_digests[seq] = digest

    def checkpoint_digest(self, seq: SeqNum) -> Optional[bytes]:
        """The state digest recorded at checkpoint ``seq``, if retained."""
        return self.checkpoint_digests.get(seq)

    def __len__(self) -> int:
        return len(self.entries)

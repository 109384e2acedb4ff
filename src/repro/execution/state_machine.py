"""Replicated state machine interface (Schneider-style RSM, Section 2).

A consensus protocol orders operations; the state machine applies them in that
order.  Replicas hold one state machine instance each, apply committed
transactions in sequence-number order and return the result to the client.
The interface is deliberately tiny: ``apply`` plus snapshot/restore/digest so
checkpoints and the rollback experiment can compare replica states.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any

from ..crypto.digest import canonical_cacheable, stores_fields


@stores_fields
@dataclass(frozen=True)
class Operation:
    """One state-machine operation: a named action plus its arguments."""

    action: str
    key: str
    value: str = ""


@canonical_cacheable
@stores_fields(memoise_hash=True)
@dataclass(frozen=True)
class OperationResult:
    """The value returned to the client for one operation.

    Canonically cacheable: state machines intern their constant results
    (every successful write is the same ``ok`` object), so the shared
    instances are encoded once and reused across every reply digest.  The
    hash is memoised for the same reason: replicas look reply digests up
    by result, once per reply.
    """

    ok: bool
    value: str = ""


class StateMachine(abc.ABC):
    """Deterministic application state replicated by the protocols."""

    @abc.abstractmethod
    def apply(self, operation: Operation) -> OperationResult:
        """Apply one operation and return its result."""

    @abc.abstractmethod
    def snapshot(self) -> Any:
        """Return an opaque, copyable snapshot of the current state."""

    @abc.abstractmethod
    def restore(self, snapshot: Any) -> None:
        """Replace the current state with a previously taken snapshot."""

    @abc.abstractmethod
    def state_digest(self) -> bytes:
        """Collision-resistant digest of the current state.

        Two replicas that applied the same operations in the same order must
        produce identical digests; the safety monitor and the checkpoint
        protocol both rely on this.
        """

"""Attested append-only logs (Pbft-EA / HotStuff-M style).

Section 4.1's log abstraction: each trusted component keeps a set of logs; a
log has numbered slots; ``Append(q, k_new, x)`` writes ``x`` at the next slot
(or at ``k_new`` if it is beyond the last used slot, burning the slots in
between); ``Lookup(q, k)`` returns an attestation of the value stored at slot
``k``.  Unlike counters, logs remember every appended message, which is why
Figure 1 classifies their memory use as "High".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..common.errors import SlotOccupied, TrustedComponentError
from ..crypto.signatures import SigningKey
from .attestation import Attestation, make_attestation


@dataclass
class LogState:
    """One append-only log: occupied slots plus the highest used slot."""

    slots: dict[int, bytes] = field(default_factory=dict)
    last_slot: int = 0
    appends: int = 0


@dataclass
class TrustedLogSet:
    """A bank of append-only logs owned by one trusted component."""

    key: SigningKey
    logs: dict[int, LogState] = field(default_factory=dict)

    def append(self, log_id: int, slot: Optional[int],
               payload_digest: bytes) -> Attestation:
        """Append ``payload_digest`` to log ``log_id``.

        When ``slot`` is ``None`` the value goes to ``last_slot + 1``.  A slot
        at or below the last used slot is rejected: the hardware never signs
        two different values for the same slot, which is the non-equivocation
        guarantee Pbft-EA builds on.
        """
        state = self.logs.setdefault(log_id, LogState())
        if slot is None:
            slot = state.last_slot + 1
        elif slot <= state.last_slot:
            raise SlotOccupied(
                f"log {log_id} already advanced to slot {state.last_slot}; "
                f"cannot append at {slot}")
        state.slots[slot] = payload_digest
        state.last_slot = slot
        state.appends += 1
        return make_attestation(self.key, log_id, slot, payload_digest)

    def lookup(self, log_id: int, slot: int) -> Attestation:
        """Return an attestation for the value stored at ``slot``.

        Raises :class:`TrustedComponentError` if the slot is empty — the
        component only attests to values it actually logged.
        """
        state = self.logs.get(log_id)
        if state is None or slot not in state.slots:
            raise TrustedComponentError(
                f"log {log_id} has no value at slot {slot}")
        return make_attestation(self.key, log_id, slot, state.slots[slot])

    def last_slot(self, log_id: int) -> int:
        """Highest slot used in ``log_id`` (0 if the log is empty)."""
        state = self.logs.get(log_id)
        return 0 if state is None else state.last_slot

    def memory_entries(self) -> int:
        """Number of stored slots across all logs (Figure 1 memory column)."""
        return sum(len(state.slots) for state in self.logs.values())

    def truncate_below(self, log_id: int, slot: int) -> int:
        """Drop entries below ``slot`` (checkpoint-driven log truncation)."""
        state = self.logs.get(log_id)
        if state is None:
            return 0
        before = len(state.slots)
        state.slots = {s: v for s, v in state.slots.items() if s >= slot}
        return before - len(state.slots)

    def snapshot(self) -> dict[int, tuple[int, dict[int, bytes]]]:
        """Copy of every log (used for rollback-attack modelling)."""
        return {
            lid: (state.last_slot, dict(state.slots))
            for lid, state in self.logs.items()
        }

    def restore(self, snapshot: dict[int, tuple[int, dict[int, bytes]]]) -> None:
        """Overwrite log contents from a snapshot (rollback primitive)."""
        self.logs = {
            lid: LogState(slots=dict(slots), last_slot=last)
            for lid, (last, slots) in snapshot.items()
        }

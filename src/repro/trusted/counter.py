"""Monotonically increasing trusted counters (MinBFT / MinZZ / TrInc style).

Section 4.1 describes the counter abstraction: ``Append(q, k_new, x)`` binds a
message ``x`` to the ``q``-th counter, moving its value forward — either to
the caller-supplied ``k_new`` (which must exceed the current value) or, when
no value is supplied, to ``current + 1``.  The call returns an attestation of
the binding.  Counters store no history, which is why their memory footprint
is "Low" in Figure 1.

FlexiTrust (Section 8.1) acts on the same counters through a narrower API.
``AppendF(q, x)`` is ``Append(q, None, x)``: the component, not the caller,
picks the next value, so sequence numbers stay contiguous and a byzantine
primary cannot propose a value far in the future.  ``Create(k)`` mints a
fresh counter at an attested start value, which a new primary uses after a
view change to restart proposals at the right sequence number.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..common.errors import CounterRegression, TrustedComponentError
from ..crypto.signatures import SigningKey
from .attestation import Attestation, make_attestation

#: digest attached to Create attestations — there is no payload to bind.
CREATE_DIGEST = b"\x00" * 32


@dataclass
class CounterState:
    """Mutable state of one counter inside the component."""

    value: int = 0
    appends: int = 0


@dataclass
class TrustedCounterSet:
    """A bank of monotonic counters owned by one trusted component.

    The component signs attestations with ``key``; the set of counters is
    created lazily the first time an identifier is used, mirroring TrInc's
    "create counter on demand" behaviour.
    """

    key: SigningKey
    counters: dict[int, CounterState] = field(default_factory=dict)
    _next_counter_id: int = 0

    @property
    def identity(self) -> str:
        """Identity string of the owning trusted component."""
        return self.key.identity

    def value(self, counter_id: int = 0) -> int:
        """Current value of a counter (0 if it was never used)."""
        return self.counters.get(counter_id, CounterState()).value

    def total_appends(self) -> int:
        """Total number of Append (and AppendF) operations across all counters."""
        return sum(state.appends for state in self.counters.values())

    def append(self, counter_id: int, new_value: Optional[int],
               payload_digest: bytes) -> Attestation:
        """Bind ``payload_digest`` to a new counter value.

        ``new_value`` may be ``None`` ("no slot location specified"), in which
        case the counter advances by one.  Supplying a value less than or
        equal to the current value raises :class:`CounterRegression` — the
        hardware never signs a binding that would reuse or rewind a value.
        """
        state = self.counters.setdefault(counter_id, CounterState())
        if new_value is None:
            new_value = state.value + 1
        if new_value <= state.value:
            raise CounterRegression(
                f"counter {counter_id} at {state.value}; cannot append at "
                f"{new_value}")
        state.value = new_value
        state.appends += 1
        return make_attestation(self.key, counter_id, new_value, payload_digest)

    def create(self, initial_value: int = 0) -> tuple[int, Attestation]:
        """``Create(k)``: mint a new counter starting at ``initial_value``.

        Returns the fresh counter identifier and an attestation proving the
        counter is new and starts at ``initial_value``.  Identifiers already
        appended to are never handed out.
        """
        if initial_value < 0:
            raise TrustedComponentError("counter cannot start at a negative value")
        while self._next_counter_id in self.counters:
            self._next_counter_id += 1
        counter_id = self._next_counter_id
        self._next_counter_id += 1
        self.counters[counter_id] = CounterState(value=initial_value)
        return counter_id, make_attestation(self.key, counter_id, initial_value,
                                             CREATE_DIGEST)

    def snapshot(self) -> dict[int, int]:
        """Copy of every counter's current value (used by checkpoints)."""
        return {cid: state.value for cid, state in self.counters.items()}

    def restore(self, snapshot: dict[int, int]) -> None:
        """Overwrite counter values from a snapshot.

        ``Create`` then resumes after the snapshot's highest identifier, so a
        rewound component hands out identifiers it already minted.

        This is the *rollback attack* primitive of Section 6.  The hardware
        host should never be able to do this; volatile SGX counters allow it,
        persistent counters and TPMs do not.  The
        :class:`~repro.trusted.component.TrustedComponentHost` only exposes it
        when the configured hardware is not persistent.
        """
        self.counters = {
            cid: CounterState(value=value) for cid, value in snapshot.items()
        }
        if self.counters:
            self._next_counter_id = max(self.counters) + 1

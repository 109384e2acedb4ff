"""A replica's trusted component: functional state plus a timed device.

:class:`TrustedComponentHost` bundles the two functional abstractions — one
bank of counters, which trust-bft ``Append`` and FlexiTrust ``AppendF`` /
``Create`` share, and the attested logs — with the hardware model of the
deployment: a :class:`~repro.sim.resources.SerialDevice` whose per-operation
latency comes from the configured :class:`~repro.common.config.TrustedHardwareSpec`.

Every operation does two things:

1. performs the functional update and returns its attestation immediately
   (so protocol handlers remain ordinary sequential code), and
2. records that one device access is owed, so the replica runtime can charge
   the access latency before any message that depends on the attestation
   leaves the replica.

Rollback (Section 6) is exposed through :meth:`snapshot` / :meth:`rollback`,
but **only** when the configured hardware is volatile; persistent counters and
TPMs refuse, which is how the "persistent hardware defeats the attack"
experiment is expressed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..common.config import TrustedHardwareSpec
from ..common.errors import TrustedComponentError
from ..crypto.signatures import SigningKey
from ..sim.resources import SerialDevice
from .attestation import Attestation
from .counter import TrustedCounterSet
from .log import TrustedLogSet


@dataclass
class TrustedAccessStats:
    """How often (and how) the component was used; feeds Figure 1 and 9.3."""

    counter_appends: int = 0
    log_appends: int = 0
    log_lookups: int = 0
    flexi_appends: int = 0
    creates: int = 0

    @property
    def total(self) -> int:
        """Total number of trusted-hardware operations."""
        return (self.counter_appends + self.log_appends + self.log_lookups
                + self.flexi_appends + self.creates)


@dataclass
class TrustedSnapshot:
    """A host-visible copy of the component's state (rollback attack)."""

    counters: dict
    logs: dict


class TrustedComponentHost:
    """The trusted component co-located with one replica."""

    def __init__(self, key: SigningKey, spec: TrustedHardwareSpec,
                 device: Optional[SerialDevice] = None) -> None:
        self.key = key
        self.spec = spec
        self.device = device
        self.counters = TrustedCounterSet(key=key)
        self.logs = TrustedLogSet(key=key)
        self.stats = TrustedAccessStats()
        self._pending_accesses = 0

    # ------------------------------------------------------- counter / logs
    def counter_append(self, counter_id: int, new_value: Optional[int],
                       payload_digest: bytes) -> Attestation:
        """trust-bft ``Append`` on a monotonic counter."""
        attestation = self.counters.append(counter_id, new_value, payload_digest)
        self._account()
        self.stats.counter_appends += 1
        return attestation

    def log_append(self, log_id: int, slot: Optional[int],
                   payload_digest: bytes) -> Attestation:
        """Pbft-EA ``Append`` on an attested log."""
        attestation = self.logs.append(log_id, slot, payload_digest)
        self._account()
        self.stats.log_appends += 1
        return attestation

    def log_lookup(self, log_id: int, slot: int) -> Attestation:
        """Pbft-EA ``Lookup``: attested read of a previously logged value."""
        attestation = self.logs.lookup(log_id, slot)
        self._account()
        self.stats.log_lookups += 1
        return attestation

    # ------------------------------------------------------------ FlexiTrust
    def append_f(self, counter_id: int, payload_digest: bytes) -> Attestation:
        """FlexiTrust ``AppendF``: ``Append`` with the value left to the component."""
        attestation = self.counters.append(counter_id, None, payload_digest)
        self._account()
        self.stats.flexi_appends += 1
        return attestation

    def create_counter(self, initial_value: int = 0) -> tuple[int, Attestation]:
        """FlexiTrust ``Create``: mint a fresh counter in the same bank."""
        counter_id, attestation = self.counters.create(initial_value)
        self._account()
        self.stats.creates += 1
        return counter_id, attestation

    # --------------------------------------------------------------- timing
    def take_pending_accesses(self) -> int:
        """Number of device accesses performed since the last call.

        The replica runtime calls this after each handler to know how many
        trusted-hardware latencies to charge before dependent messages leave.
        """
        pending = self._pending_accesses
        self._pending_accesses = 0
        return pending

    def _account(self) -> None:
        self._pending_accesses += 1

    # ------------------------------------------------------------- rollback
    def snapshot(self) -> TrustedSnapshot:
        """Copy of the component's state, as seen by the (malicious) host."""
        return TrustedSnapshot(
            counters=self.counters.snapshot(),
            logs=self.logs.snapshot(),
        )

    def rollback(self, snapshot: TrustedSnapshot) -> None:
        """Restore a previous state — only possible on volatile hardware.

        Persistent hardware (SGX persistent counters, TPMs) refuses with
        :class:`TrustedComponentError`; this is the Section 6 dichotomy.
        """
        if self.spec.persistent:
            raise TrustedComponentError(
                f"{self.spec.name} state is persistent; rollback is not possible")
        self.counters.restore(snapshot.counters)
        self.logs.restore(snapshot.logs)

"""Exception hierarchy for the reproduction library.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures without catching unrelated bugs.  The sub-classes
mirror the layers of the system: configuration, simulation, cryptography,
trusted hardware, protocol logic and safety violations detected at runtime.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """A configuration object is inconsistent or out of range."""


class SimulationError(ReproError):
    """The discrete-event kernel was used incorrectly."""


class CryptoError(ReproError):
    """A cryptographic check failed (bad signature, MAC, or unknown key)."""


class InvalidSignature(CryptoError):
    """A digital signature did not verify."""


class InvalidMac(CryptoError):
    """A message authentication code did not verify."""


class UnknownKey(CryptoError):
    """A signer or verifier was requested for an unregistered identity."""


class TrustedComponentError(ReproError):
    """A trusted component rejected an operation."""


class CounterRegression(TrustedComponentError):
    """An ``Append`` tried to move a monotonic counter backwards."""


class SlotOccupied(TrustedComponentError):
    """An append-only log slot already holds a different value."""


class InvalidAttestation(TrustedComponentError):
    """An attestation failed verification against the component's key."""


class WireError(ReproError):
    """A frame or payload on the binary wire protocol is invalid.

    Every wire-layer failure derives from this class so transports can fail
    a run with one typed diagnostic instead of dying inside a stream reader
    or a decoder internal.  The sub-classes name the exact defect, which the
    malformed-frame tests pin one by one.
    """


class TruncatedFrame(WireError):
    """A frame ended before its declared header or payload length."""


class BadFrameMagic(WireError):
    """A frame header does not start with the protocol magic bytes."""


class UnsupportedWireVersion(WireError):
    """A frame header carries a wire-protocol version this build cannot read."""


class OversizedFrame(WireError):
    """A frame header claims a payload larger than the enforced maximum."""


class UnknownWireClass(WireError):
    """A payload names a dataclass that is not in the wire registry."""


class MalformedWirePayload(WireError):
    """A payload is not a well-formed canonical encoding or envelope head."""


class TruncatedPayload(MalformedWirePayload):
    """A payload ends inside a value (a frame's length was consistent)."""


class NonCanonicalPayload(MalformedWirePayload):
    """A payload decodes, but not as the one spelling of its value.

    A non-minimal varint, a bool or presence byte above 1, a second NaN,
    set members or dict keys out of order or repeated: bytes the encoder
    never writes, refused so that a received slice can be pinned as the
    canonical encoding of what it decodes to.
    """


class UnencodableWirePayload(WireError):
    """An outgoing payload contains values the canonical codec cannot carry."""


class ProtocolError(ReproError):
    """A replica received a message it cannot process in its current state."""


class SafetyViolation(ReproError):
    """The safety monitor observed two honest replicas disagreeing.

    Raised (or recorded, depending on the monitor's mode) when two honest
    replicas execute different transactions at the same sequence number — the
    Consensus Safety property of Section 2 — or when the RSM outputs diverge.
    The rollback-attack experiment of Section 6 relies on this being detected.
    """


class LivenessViolation(ReproError):
    """An operation that should have completed did not within its deadline."""


class StallError(LivenessViolation):
    """A live run stopped making progress before its wall-clock cap.

    Raised by the stall watchdog (or by the deployment when a run hits the
    cap short of its target) instead of the old anonymous timeout.  Carries
    the full diagnostics bundle the watchdog snapshotted — kernel heap size,
    pending asyncio tasks, per-peer connection state, every replica's health
    — plus the name of the replica the snapshot points at as the most likely
    culprit, so a failed live run is self-diagnosing.
    """

    def __init__(self, message: str, suspect: "str | None" = None,
                 diagnostics: "dict | None" = None) -> None:
        super().__init__(message)
        self.suspect = suspect
        self.diagnostics = diagnostics if diagnostics is not None else {}

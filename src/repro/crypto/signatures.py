"""Simulated digital signatures and MACs.

ResilientDB uses ED25519 signatures and CMAC message authentication codes
(Section 9.1).  Reimplementing elliptic-curve cryptography is outside the
scope of this reproduction, so signatures here are HMAC-SHA256 values keyed by
a per-identity secret.  What matters for the protocols is preserved:

* a signature/MAC over a message verifies if and only if it was produced over
  exactly that message with the signer's secret;
* code that does not hold an identity's :class:`SigningKey` cannot forge its
  signatures (the adversary hooks in this library only ever receive the keys
  of the replicas they control);
* every generate/verify operation has a CPU cost charged to the simulated
  clock by the replica runtime, from the one price table
  :data:`~repro.protocols.base.CRYPTO_COSTS` (a
  :class:`~repro.common.config.CryptoCostModel`); the real HMAC work done here
  is host time and never enters the model.

The asymmetry of real signatures (anyone can verify, only the owner can sign)
is modelled by routing verification through the deployment's
:class:`~repro.crypto.keystore.KeyStore`, which owns all secrets and exposes a
verify-only API.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Any

from ..common.errors import InvalidMac, InvalidSignature
from .digest import canonical_bytes, canonical_cacheable, stores_fields

_SIG_TAG = b"repro-ds-v1"
_MAC_TAG = b"repro-mac-v1"


@canonical_cacheable
@stores_fields
@dataclass(frozen=True)
class Signature:
    """A digital signature: the signer's identity plus the HMAC value."""

    signer: str
    value: bytes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Signature({self.signer}, {self.value.hex()[:12]}…)"


@dataclass(frozen=True)
class Mac:
    """A pairwise message authentication code."""

    sender: str
    receiver: str
    value: bytes


_BLOCK_SIZE = hashlib.sha256().block_size
_INNER_PAD = bytes(byte ^ 0x36 for byte in range(256))
_OUTER_PAD = bytes(byte ^ 0x5C for byte in range(256))


def _keyed_states(secret: bytes, tag: bytes) -> tuple:
    """HMAC-SHA256's two keyed hash states, the inner one already fed ``tag``.

    The key pads are derived once per key; each operation then copies the
    two ``hashlib`` states directly instead of going through an
    ``hmac.HMAC`` object.  Values are identical to
    ``hmac.new(secret, tag + message, hashlib.sha256).digest()``.
    """
    if len(secret) > _BLOCK_SIZE:
        secret = hashlib.sha256(secret).digest()
    block = secret.ljust(_BLOCK_SIZE, b"\0")
    inner = hashlib.sha256(block.translate(_INNER_PAD))
    inner.update(tag)
    return inner, hashlib.sha256(block.translate(_OUTER_PAD))


def _authenticate(states: tuple, encoded: bytes) -> bytes:
    inner, outer = states
    inner = inner.copy()
    inner.update(encoded)
    outer = outer.copy()
    outer.update(inner.digest())
    return outer.digest()


class SigningKey:
    """Secret signing key for one identity (see :func:`_keyed_states`)."""

    def __init__(self, identity: str, secret: bytes) -> None:
        self.identity = identity
        self._states = _keyed_states(secret, _SIG_TAG)

    def sign(self, message: Any) -> Signature:
        """Sign the canonical encoding of ``message``."""
        return self.sign_bytes(canonical_bytes(message))

    def sign_bytes(self, encoded: bytes) -> Signature:
        """Sign an already canonically encoded message."""
        return Signature(signer=self.identity,
                         value=_authenticate(self._states, encoded))

    def _verify_bytes(self, encoded: bytes, signature: Signature) -> bool:
        return hmac.compare_digest(_authenticate(self._states, encoded),
                                   signature.value)


class MacKey:
    """Shared secret between an ordered pair of identities."""

    def __init__(self, sender: str, receiver: str, secret: bytes) -> None:
        self.sender = sender
        self.receiver = receiver
        self._states = _keyed_states(secret, _MAC_TAG)

    def generate(self, message: Any) -> Mac:
        """Authenticate ``message`` from ``sender`` to ``receiver``."""
        return Mac(sender=self.sender, receiver=self.receiver,
                   value=_authenticate(self._states, canonical_bytes(message)))

    def verify(self, message: Any, mac: Mac) -> None:
        """Raise :class:`InvalidMac` unless ``mac`` authenticates ``message``."""
        if not hmac.compare_digest(
                _authenticate(self._states, canonical_bytes(message)),
                mac.value):
            raise InvalidMac(
                f"MAC from {mac.sender} to {mac.receiver} failed verification")


def verify_with_key(key: SigningKey, message: Any, signature: Signature,
                    encoded: bytes | None = None) -> None:
    """Verify ``signature`` over ``message`` using the signer's key material.

    Raises :class:`InvalidSignature` on mismatch (wrong signer or altered
    message).  ``encoded`` lets callers that already canonically encoded the
    message (the key store's verification cache) skip re-serialising it.
    Library code should normally call
    :meth:`repro.crypto.keystore.KeyStore.verify` instead; this low-level
    helper exists for the key store and for tests.
    """
    if signature.signer != key.identity:
        raise InvalidSignature(
            f"signature claims signer {signature.signer!r} but key belongs to "
            f"{key.identity!r}")
    if encoded is None:
        encoded = canonical_bytes(message)
    if not key._verify_bytes(encoded, signature):
        raise InvalidSignature(f"signature by {signature.signer!r} does not verify")

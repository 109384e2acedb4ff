"""Key management for a deployment.

One :class:`KeyStore` is created per deployment.  It derives, from a single
seed, a signing key for every replica, client and trusted component, plus
pairwise MAC keys for authenticated channels.  Replica code receives only its
*own* signing key and the store's verify-only surface, which is how the
"byzantine replicas can impersonate each other but not honest replicas"
assumption of Section 2 is enforced in the simulation.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Iterable

from ..common.errors import InvalidSignature, UnknownKey
from .digest import canonical_bytes
from .signatures import Mac, MacKey, Signature, SigningKey, verify_with_key


def _derive(seed: int, *parts: str) -> bytes:
    material = "/".join((str(seed),) + parts).encode()
    return hashlib.sha256(material).digest()


@dataclass(slots=True)
class KeyStoreStats:
    """Verification-cache effectiveness counters."""

    verify_cache_hits: int = 0
    verify_cache_misses: int = 0

    @property
    def lookups(self) -> int:
        """Total verification-cache lookups."""
        return self.verify_cache_hits + self.verify_cache_misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        lookups = self.lookups
        return self.verify_cache_hits / lookups if lookups else 0.0


class KeyStore:
    """Holds every secret in the deployment and verifies on behalf of all.

    Verification is memoised: a deployment-wide store sees the same
    ``(message, signature)`` pair once per receiving replica — an attestation
    travelling in a Preprepare is re-verified ``n - 1`` times — so outcomes
    are cached on the canonical encoding.  The cache is bounded LRU and
    caches *both* outcomes (a forged signature stays invalid on every
    lookup).  Simulated verification CPU cost is charged by the replica
    runtime regardless; the cache only removes redundant real-world work.
    A sharded deployment shares one store across its groups, so ``stats``
    counts the whole deployment's verifications.
    """

    def __init__(self, seed: int = 0, verify_cache_size: int = 8192) -> None:
        self._seed = seed
        self._signing: dict[str, SigningKey] = {}
        self._macs: dict[tuple[str, str], MacKey] = {}
        self._verify_cache: OrderedDict[tuple[str, bytes, bytes], bool] = OrderedDict()
        self._verify_cache_size = verify_cache_size
        self.stats = KeyStoreStats()

    # ------------------------------------------------------------------ setup
    def register(self, identity: str) -> SigningKey:
        """Create (or return) the signing key for ``identity``."""
        if identity not in self._signing:
            secret = _derive(self._seed, "sign", identity)
            self._signing[identity] = SigningKey(identity, secret)
        return self._signing[identity]

    def register_all(self, identities: Iterable[str]) -> None:
        """Register a batch of identities."""
        for identity in identities:
            self.register(identity)

    def signing_key(self, identity: str) -> SigningKey:
        """Return the signing key for ``identity`` (must be registered)."""
        try:
            return self._signing[identity]
        except KeyError:
            raise UnknownKey(f"no signing key registered for {identity!r}") from None

    def identities(self) -> list[str]:
        """All registered identities, sorted for reproducibility."""
        return sorted(self._signing)

    # ------------------------------------------------------------ signatures
    def sign(self, identity: str, message: Any) -> Signature:
        """Sign ``message`` as ``identity`` (must be registered)."""
        return self.signing_key(identity).sign(message)

    def verify(self, message: Any, signature: Signature) -> None:
        """Verify a signature; raises on unknown signer or mismatch.

        Outcomes are memoised on ``(signer, canonical encoding, signature
        value)``; see the class docstring.
        """
        self.verify_encoded(canonical_bytes(message), signature)

    def verify_encoded(self, encoded: bytes, signature: Signature) -> None:
        """Verify a signature over an already canonically encoded message.

        The fast path for callers holding a memoised encoding (see
        :func:`repro.protocols.messages.signed_part_bytes`); semantics are
        identical to :meth:`verify`.
        """
        key = self.signing_key(signature.signer)
        cache_key = (signature.signer, encoded, signature.value)
        cache = self._verify_cache
        cached = cache.get(cache_key)
        if cached is not None:
            cache.move_to_end(cache_key)
            self.stats.verify_cache_hits += 1
            if not cached:
                raise InvalidSignature(
                    f"signature by {signature.signer!r} does not verify")
            return
        self.stats.verify_cache_misses += 1
        try:
            verify_with_key(key, None, signature, encoded=encoded)
        except InvalidSignature:
            self._remember_verification(cache_key, False)
            raise
        self._remember_verification(cache_key, True)

    def _remember_verification(self, cache_key: tuple[str, bytes, bytes],
                               outcome: bool) -> None:
        cache = self._verify_cache
        cache[cache_key] = outcome
        if len(cache) > self._verify_cache_size:
            cache.popitem(last=False)

    def is_valid(self, message: Any, signature: Signature) -> bool:
        """Boolean form of :meth:`verify` for callers that prefer not to raise."""
        try:
            self.verify(message, signature)
        except Exception:
            return False
        return True

    def is_valid_encoded(self, encoded: bytes, signature: Signature) -> bool:
        """Boolean form of :meth:`verify_encoded`."""
        try:
            self.verify_encoded(encoded, signature)
        except Exception:
            return False
        return True

    # ------------------------------------------------------------------ MACs
    def mac_key(self, sender: str, receiver: str) -> MacKey:
        """Shared MAC key for the ordered channel ``sender -> receiver``."""
        pair = (sender, receiver)
        if pair not in self._macs:
            # The channel secret is symmetric in the two endpoints so that
            # either side can authenticate to the other, like a shared CMAC key.
            lo, hi = sorted(pair)
            secret = _derive(self._seed, "mac", lo, hi)
            self._macs[pair] = MacKey(sender, receiver, secret)
        return self._macs[pair]

    def mac(self, sender: str, receiver: str, message: Any) -> Mac:
        """Authenticate ``message`` on the channel ``sender -> receiver``."""
        return self.mac_key(sender, receiver).generate(message)

    def verify_mac(self, message: Any, mac: Mac) -> None:
        """Verify a channel MAC; raises :class:`InvalidMac` on mismatch."""
        self.mac_key(mac.sender, mac.receiver).verify(message, mac)

    # ------------------------------------------------------------- utilities
    def verifier(self) -> "KeyStoreVerifier":
        """A verify-only view safe to hand to replica and adversary code."""
        return KeyStoreVerifier(self)


class KeyStoreVerifier:
    """Verify-only facade over a :class:`KeyStore`.

    Byzantine strategies receive this object (plus the signing keys of the
    replicas they control), so they can check any signature but forge none.
    """

    def __init__(self, store: KeyStore) -> None:
        self._store = store

    def verify(self, message: Any, signature: Signature) -> None:
        self._store.verify(message, signature)

    def verify_encoded(self, encoded: bytes, signature: Signature) -> None:
        self._store.verify_encoded(encoded, signature)

    def is_valid(self, message: Any, signature: Signature) -> bool:
        return self._store.is_valid(message, signature)

    def is_valid_encoded(self, encoded: bytes, signature: Signature) -> bool:
        return self._store.is_valid_encoded(encoded, signature)

    def verify_mac(self, message: Any, mac: Mac) -> None:
        self._store.verify_mac(message, mac)

"""Unit tests for digests, simulated signatures, MACs and the key store."""

import pytest

from repro.common.errors import InvalidMac, InvalidSignature, UnknownKey
from repro.crypto import (
    KeyStore,
    canonical_bytes,
    combine_digests,
    digest,
    digest_hex,
    verify_with_key,
)


class TestCanonicalEncoding:
    def test_dict_order_does_not_matter(self):
        assert digest({"a": 1, "b": 2}) == digest({"b": 2, "a": 1})

    def test_different_values_differ(self):
        assert digest({"a": 1}) != digest({"a": 2})

    def test_type_distinctions_preserved(self):
        assert digest(1) != digest("1")
        assert digest(True) != digest(1)
        assert digest(None) != digest(0)

    def test_nested_structures(self):
        value = {"outer": [1, 2, {"inner": (3, 4)}]}
        same = {"outer": [1, 2, {"inner": (3, 4)}]}
        assert digest(value) == digest(same)

    def test_sets_are_order_insensitive(self):
        assert digest({3, 1, 2}) == digest({2, 3, 1})

    def test_bytes_and_strings_distinct(self):
        assert digest(b"abc") != digest("abc")

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            canonical_bytes(object())

    def test_digest_is_32_bytes(self):
        assert len(digest("hello")) == 32
        assert len(digest_hex("hello")) == 64

    def test_combine_digests_order_sensitive(self):
        a, b = digest("a"), digest("b")
        assert combine_digests(a, b) != combine_digests(b, a)


class TestSignatures:
    def test_sign_and_verify_roundtrip(self):
        store = KeyStore(seed=1)
        key = store.register("replica-0")
        signature = key.sign({"view": 1, "seq": 2})
        store.verify({"view": 1, "seq": 2}, signature)  # does not raise

    def test_tampered_message_rejected(self):
        store = KeyStore(seed=1)
        key = store.register("replica-0")
        signature = key.sign({"view": 1})
        with pytest.raises(InvalidSignature):
            store.verify({"view": 2}, signature)

    def test_wrong_signer_rejected(self):
        store = KeyStore(seed=1)
        key0 = store.register("replica-0")
        store.register("replica-1")
        signature = key0.sign("message")
        forged = type(signature)(signer="replica-1", value=signature.value)
        with pytest.raises(InvalidSignature):
            store.verify("message", forged)

    def test_verify_with_key_checks_identity(self):
        store = KeyStore(seed=1)
        key0 = store.register("replica-0")
        key1 = store.register("replica-1")
        signature = key0.sign("message")
        with pytest.raises(InvalidSignature):
            verify_with_key(key1, "message", signature)

    def test_unknown_signer_raises(self):
        store = KeyStore(seed=1)
        key = store.register("replica-0")
        signature = key.sign("m")
        other_store = KeyStore(seed=1)
        with pytest.raises(UnknownKey):
            other_store.verify("m", signature)

    def test_is_valid_boolean_form(self):
        store = KeyStore(seed=1)
        key = store.register("replica-0")
        signature = key.sign("m")
        assert store.is_valid("m", signature)
        assert not store.is_valid("other", signature)

    def test_different_seeds_produce_different_keys(self):
        sig_a = KeyStore(seed=1).register("r").sign("m")
        sig_b = KeyStore(seed=2).register("r").sign("m")
        assert sig_a.value != sig_b.value

    @pytest.mark.parametrize("secret", [
        b"k", b"s" * 32, b"b" * 64, b"longer than one sha-256 block " * 4])
    def test_values_are_plain_hmac_sha256(self, secret):
        # The keys copy precomputed inner/outer hash states; the values must
        # stay those of the textbook construction, for every key length
        # (a key longer than the block is hashed first).
        import hashlib
        import hmac

        from repro.crypto.signatures import (
            _MAC_TAG, _SIG_TAG, MacKey, SigningKey)

        encoded = canonical_bytes({"seq": 7, "view": 1})
        key = SigningKey("signer", secret)
        expected = hmac.new(secret, _SIG_TAG + encoded, hashlib.sha256).digest()
        assert key.sign_bytes(encoded).value == expected
        assert key._verify_bytes(encoded, key.sign_bytes(encoded))
        mac_key = MacKey("a", "b", secret)
        expected = hmac.new(secret, _MAC_TAG + encoded, hashlib.sha256).digest()
        assert mac_key.generate({"seq": 7, "view": 1}).value == expected


class TestMacs:
    def test_mac_roundtrip(self):
        store = KeyStore(seed=1)
        mac = store.mac("replica-0", "replica-1", "payload")
        store.verify_mac("payload", mac)  # does not raise

    def test_tampered_payload_rejected(self):
        store = KeyStore(seed=1)
        mac = store.mac("replica-0", "replica-1", "payload")
        with pytest.raises(InvalidMac):
            store.verify_mac("other payload", mac)

    def test_channel_secret_is_symmetric(self):
        store = KeyStore(seed=1)
        forward = store.mac("a", "b", "m")
        backward = store.mac("b", "a", "m")
        assert forward.value == backward.value  # same shared channel secret

    def test_different_channels_have_different_secrets(self):
        store = KeyStore(seed=1)
        mac_ab = store.mac("a", "b", "m")
        mac_ac = store.mac("a", "c", "m")
        assert mac_ab.value != mac_ac.value


class TestVerifierFacade:
    def test_verifier_can_verify_but_not_sign(self):
        store = KeyStore(seed=1)
        key = store.register("replica-0")
        verifier = store.verifier()
        signature = key.sign("m")
        verifier.verify("m", signature)
        assert verifier.is_valid("m", signature)
        assert not hasattr(verifier, "sign")

    def test_identities_listing(self):
        store = KeyStore(seed=1)
        store.register_all(["b", "a", "c"])
        assert store.identities() == ["a", "b", "c"]

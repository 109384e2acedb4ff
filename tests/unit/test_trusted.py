"""Unit tests for trusted counters (Append, AppendF, Create), logs and rollback."""

import pytest

from repro.common.config import SGX_ENCLAVE_COUNTER, SGX_PERSISTENT_COUNTER, TPM_COUNTER
from repro.common.errors import (
    CounterRegression,
    InvalidAttestation,
    SlotOccupied,
    TrustedComponentError,
)
from repro.crypto import KeyStore, digest
from repro.trusted import (
    CREATE_DIGEST,
    TrustedComponentHost,
    TrustedCounterSet,
    TrustedLogSet,
    verify_attestation,
)


@pytest.fixture
def keystore():
    return KeyStore(seed=9)


@pytest.fixture
def tc_key(keystore):
    return keystore.register("tc/replica-0")


class TestTrustedCounter:
    def test_append_without_value_increments(self, tc_key):
        counters = TrustedCounterSet(key=tc_key)
        a1 = counters.append(0, None, digest("x"))
        a2 = counters.append(0, None, digest("y"))
        assert (a1.value, a2.value) == (1, 2)

    def test_append_with_explicit_value_jumps_forward(self, tc_key):
        counters = TrustedCounterSet(key=tc_key)
        attestation = counters.append(0, 10, digest("x"))
        assert attestation.value == 10
        assert counters.value(0) == 10

    def test_regression_rejected(self, tc_key):
        counters = TrustedCounterSet(key=tc_key)
        counters.append(0, 5, digest("x"))
        with pytest.raises(CounterRegression):
            counters.append(0, 5, digest("y"))
        with pytest.raises(CounterRegression):
            counters.append(0, 3, digest("y"))

    def test_independent_counters(self, tc_key):
        counters = TrustedCounterSet(key=tc_key)
        counters.append(0, None, digest("x"))
        counters.append(1, None, digest("y"))
        assert counters.value(0) == 1
        assert counters.value(1) == 1
        assert counters.total_appends() == 2

    def test_snapshot_and_restore(self, tc_key):
        counters = TrustedCounterSet(key=tc_key)
        counters.append(0, None, digest("x"))
        snapshot = counters.snapshot()
        counters.append(0, None, digest("y"))
        counters.restore(snapshot)
        assert counters.value(0) == 1

    def test_attestation_verifies(self, keystore, tc_key):
        counters = TrustedCounterSet(key=tc_key)
        attestation = counters.append(0, None, digest("x"))
        verify_attestation(keystore, attestation,
                           expected_component="tc/replica-0",
                           expected_digest=digest("x"))

    def test_attestation_wrong_digest_rejected(self, keystore, tc_key):
        counters = TrustedCounterSet(key=tc_key)
        attestation = counters.append(0, None, digest("x"))
        with pytest.raises(InvalidAttestation):
            verify_attestation(keystore, attestation, expected_digest=digest("y"))

    def test_create_skips_identifiers_already_appended_to(self, tc_key):
        counters = TrustedCounterSet(key=tc_key)
        counters.append(0, None, digest("x"))
        counters.append(1, 7, digest("y"))
        counter_id, attestation = counters.create(3)
        assert counter_id == 2
        assert attestation.value == 3
        assert (counters.value(0), counters.value(1)) == (1, 7)


class TestTrustedLog:
    def test_sequential_appends(self, tc_key):
        logs = TrustedLogSet(key=tc_key)
        a1 = logs.append(0, None, digest("x"))
        a2 = logs.append(0, None, digest("y"))
        assert (a1.value, a2.value) == (1, 2)

    def test_skip_ahead_burns_slots(self, tc_key):
        logs = TrustedLogSet(key=tc_key)
        logs.append(0, 5, digest("x"))
        with pytest.raises(SlotOccupied):
            logs.append(0, 3, digest("y"))

    def test_lookup_returns_attested_value(self, keystore, tc_key):
        logs = TrustedLogSet(key=tc_key)
        logs.append(0, None, digest("x"))
        attestation = logs.lookup(0, 1)
        assert attestation.payload_digest == digest("x")
        verify_attestation(keystore, attestation)

    def test_lookup_empty_slot_rejected(self, tc_key):
        logs = TrustedLogSet(key=tc_key)
        with pytest.raises(TrustedComponentError):
            logs.lookup(0, 1)

    def test_memory_tracking_and_truncation(self, tc_key):
        logs = TrustedLogSet(key=tc_key)
        for i in range(10):
            logs.append(0, None, digest(i))
        assert logs.memory_entries() == 10
        dropped = logs.truncate_below(0, 6)
        assert dropped == 5
        assert logs.memory_entries() == 5

    def test_snapshot_restore(self, tc_key):
        logs = TrustedLogSet(key=tc_key)
        logs.append(0, None, digest("x"))
        snap = logs.snapshot()
        logs.append(0, None, digest("y"))
        logs.restore(snap)
        assert logs.last_slot(0) == 1


class TestFlexiCounter:
    """FlexiTrust's API on the same bank: AppendF is Append without a value."""

    def test_append_f_is_contiguous(self, tc_key):
        counters = TrustedCounterSet(key=tc_key)
        values = [counters.append(0, None, digest(i)).value for i in range(5)]
        assert values == [1, 2, 3, 4, 5]

    def test_create_returns_fresh_identifiers(self, tc_key):
        counters = TrustedCounterSet(key=tc_key)
        id1, att1 = counters.create(0)
        id2, att2 = counters.create(10)
        assert id1 != id2
        assert att2.value == 10
        assert att2.payload_digest == CREATE_DIGEST
        assert counters.append(id2, None, digest("x")).value == 11

    def test_create_negative_initial_rejected(self, tc_key):
        counters = TrustedCounterSet(key=tc_key)
        with pytest.raises(TrustedComponentError):
            counters.create(-1)

    def test_snapshot_restore_preserves_next_id(self, tc_key):
        counters = TrustedCounterSet(key=tc_key)
        cid, _ = counters.create(0)
        counters.append(cid, None, digest("x"))
        snap = counters.snapshot()
        counters.append(cid, None, digest("y"))
        counters.restore(snap)
        assert counters.value(cid) == 1
        assert counters.create(0)[0] == cid + 1


class TestTrustedComponentHost:
    def test_volatile_hardware_allows_rollback(self, tc_key):
        host = TrustedComponentHost(tc_key, SGX_ENCLAVE_COUNTER)
        host.counter_append(0, None, digest("x"))
        snapshot = host.snapshot()
        host.counter_append(0, None, digest("y"))
        host.rollback(snapshot)
        assert host.counters.value(0) == 1

    @pytest.mark.parametrize("spec", [SGX_PERSISTENT_COUNTER, TPM_COUNTER])
    def test_persistent_hardware_refuses_rollback(self, tc_key, spec):
        host = TrustedComponentHost(tc_key, spec)
        host.counter_append(0, None, digest("x"))
        snapshot = host.snapshot()
        with pytest.raises(TrustedComponentError):
            host.rollback(snapshot)

    def test_pending_access_accounting(self, tc_key):
        host = TrustedComponentHost(tc_key, SGX_ENCLAVE_COUNTER)
        host.counter_append(0, None, digest("x"))
        host.append_f(0, digest("y"))
        assert host.take_pending_accesses() == 2
        assert host.take_pending_accesses() == 0

    def test_append_and_append_f_share_one_counter(self, tc_key):
        host = TrustedComponentHost(tc_key, SGX_ENCLAVE_COUNTER)
        host.counter_append(0, None, digest("x"))
        assert host.append_f(0, digest("y")).value == 2
        assert host.counters.value(0) == 2

    def test_stats_track_operation_kinds(self, tc_key):
        host = TrustedComponentHost(tc_key, SGX_ENCLAVE_COUNTER)
        host.counter_append(0, None, digest("a"))
        host.log_append(0, None, digest("b"))
        host.log_lookup(0, 1)
        host.append_f(0, digest("c"))
        host.create_counter(5)
        assert host.stats.counter_appends == 1
        assert host.stats.log_appends == 1
        assert host.stats.log_lookups == 1
        assert host.stats.flexi_appends == 1
        assert host.stats.creates == 1
        assert host.stats.total == 5


class TestTrustedApiPin:
    """The attestations a fixed call sequence produces, byte for byte.

    Each host uses one API family: trust-bft ``Append`` on the first,
    FlexiTrust ``Create`` / ``AppendF`` on the second.  The pinned tuples are
    ``(counter_id, value, payload label, signature prefix)``; the label
    ``None`` stands for ``CREATE_DIGEST``.
    """

    @staticmethod
    def _host():
        key = KeyStore(seed=32).register("tc/replica-0")
        return TrustedComponentHost(key, SGX_ENCLAVE_COUNTER)

    @staticmethod
    def _pin(attestation, label):
        expected = digest(label) if label is not None else CREATE_DIGEST
        assert attestation.payload_digest == expected
        return (attestation.counter_id, attestation.value, label,
                attestation.signature.value.hex()[:16])

    def test_append_with_and_without_value_then_rollback(self):
        host = self._host()
        pins = [self._pin(host.counter_append(0, None, digest("a")), "a"),
                self._pin(host.counter_append(0, 5, digest("b")), "b"),
                self._pin(host.counter_append(1, None, digest("c")), "c")]
        snapshot = host.snapshot()
        pins.append(self._pin(host.counter_append(0, None, digest("d")), "d"))
        host.rollback(snapshot)
        pins.append(self._pin(host.counter_append(0, None, digest("e")), "e"))
        assert pins == [
            (0, 1, "a", "26014e81af8c8c86"),
            (0, 5, "b", "000165498e3dfec3"),
            (1, 1, "c", "ecbd56b263a0b7eb"),
            (0, 6, "d", "7c5d7c10fed69504"),
            (0, 6, "e", "70c4ab856c237664"),
        ]

    def test_create_and_append_f_then_rollback(self):
        host = self._host()
        first, created = host.create_counter(0)
        pins = [self._pin(created, None),
                self._pin(host.append_f(first, digest("x")), "x")]
        snapshot = host.snapshot()
        second, created = host.create_counter(10)
        pins += [self._pin(created, None),
                 self._pin(host.append_f(second, digest("y")), "y")]
        host.rollback(snapshot)
        # The rollback hands the second counter's identifier out again.
        third, created = host.create_counter(3)
        pins += [self._pin(created, None),
                 self._pin(host.append_f(third, digest("z")), "z")]
        assert pins == [
            (0, 0, None, "2bb55c119b72e3e1"),
            (0, 1, "x", "e7448c002bcb633e"),
            (1, 10, None, "3900afeb695d8df7"),
            (1, 11, "y", "353eb0ce9722e07d"),
            (1, 3, None, "5217ff5a87ccb167"),
            (1, 4, "z", "a00e4ee221766725"),
        ]

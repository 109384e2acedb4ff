"""Unit tests for the key-value store, ledger and safety monitor."""

import pytest

from repro.common.errors import SafetyViolation
from repro.execution import (
    ExecutedBatch,
    KeyValueStore,
    Ledger,
    Operation,
    SafetyMonitor,
)


class TestKeyValueStore:
    def test_preload_creates_records(self):
        store = KeyValueStore(records=10)
        assert len(store) == 10
        assert store.get("user0") is not None

    def test_write_then_read(self):
        store = KeyValueStore()
        store.apply(Operation(action="write", key="k", value="v"))
        result = store.apply(Operation(action="read", key="k"))
        assert result.ok and result.value == "v"

    def test_read_missing_key_fails(self):
        store = KeyValueStore()
        assert not store.apply(Operation(action="read", key="nope")).ok

    def test_delete(self):
        store = KeyValueStore()
        store.apply(Operation(action="insert", key="k", value="v"))
        assert store.apply(Operation(action="delete", key="k")).ok
        assert not store.apply(Operation(action="delete", key="k")).ok

    def test_rmw_is_deterministic(self):
        a, b = KeyValueStore(), KeyValueStore()
        op = Operation(action="rmw", key="k", value="delta")
        assert a.apply(op) == b.apply(op)

    def test_unknown_action_fails_deterministically(self):
        store = KeyValueStore()
        result = store.apply(Operation(action="explode", key="k"))
        assert not result.ok

    def test_state_digest_tracks_content(self):
        a, b = KeyValueStore(records=5), KeyValueStore(records=5)
        assert a.state_digest() == b.state_digest()
        a.apply(Operation(action="write", key="user0", value="new"))
        assert a.state_digest() != b.state_digest()

    def test_state_digest_matches_the_per_entry_reference(self):
        import hashlib

        def reference(data):
            h = hashlib.sha256()
            for key in sorted(data):
                h.update(key.encode())
                h.update(b"=")
                h.update(data[key].encode())
                h.update(b";")
            return h.digest()

        store = KeyValueStore()
        assert store.state_digest() == reference({})
        for key, value in (("k", "v"), ("", ""), ("ünï", "✓;=x"), ("a=b", ";")):
            store.apply(Operation(action="write", key=key, value=value))
            assert store.state_digest() == reference(store.snapshot())
        big = KeyValueStore(records=1300)  # several updates, one partial
        assert big.state_digest() == reference(big.snapshot())

    def test_snapshot_restore_roundtrip(self):
        store = KeyValueStore(records=3)
        snapshot = store.snapshot()
        store.apply(Operation(action="write", key="user0", value="changed"))
        store.restore(snapshot)
        assert store.state_digest() == KeyValueStore(records=3).state_digest()

    def test_operations_applied_counter(self):
        store = KeyValueStore()
        for i in range(4):
            store.apply(Operation(action="write", key=f"k{i}", value="v"))
        assert store.operations_applied == 4


def _batch(seq, digest=b"d" * 32, speculative=False):
    return ExecutedBatch(seq=seq, batch_digest=digest, request_ids=(f"r{seq}",),
                         results=(), executed_at=float(seq), speculative=speculative)


class TestLedger:
    def test_contiguous_recording_advances_last_executed(self):
        ledger = Ledger()
        ledger.record(_batch(1))
        ledger.record(_batch(2))
        assert ledger.last_executed == 2

    def test_out_of_order_entry_absorbed_when_gap_fills(self):
        ledger = Ledger()
        ledger.record(_batch(2))
        assert ledger.last_executed == 0
        ledger.record(_batch(1))
        assert ledger.last_executed == 2

    def test_truncate_below_removes_old_entries(self):
        ledger = Ledger()
        for seq in range(1, 6):
            ledger.record(_batch(seq))
        removed = ledger.truncate_below(3)
        assert removed == 3
        assert not ledger.executed(2)
        assert ledger.executed(4)

    def test_rollback_removes_speculative_suffix(self):
        ledger = Ledger()
        for seq in range(1, 5):
            ledger.record(_batch(seq, speculative=True))
        removed = ledger.rollback_to(2)
        assert [b.seq for b in removed] == [4, 3]
        assert ledger.last_executed == 2

    def test_mark_stable_never_regresses(self):
        ledger = Ledger()
        ledger.mark_stable(10)
        ledger.mark_stable(5)
        assert ledger.stable_checkpoint == 10

    def test_executed_since(self):
        ledger = Ledger()
        for seq in range(1, 6):
            ledger.record(_batch(seq))
        assert [b.seq for b in ledger.executed_since(3)] == [4, 5]

    def test_snapshot_storage(self):
        ledger = Ledger()
        ledger.store_snapshot(3, {"k": "v"})
        assert ledger.snapshot_at(3) == {"k": "v"}
        assert ledger.snapshot_at(4) is None


class TestSafetyMonitor:
    def test_matching_executions_are_safe(self):
        monitor = SafetyMonitor(honest_replicas=frozenset({0, 1, 2}))
        for rid in range(3):
            monitor.record_execution(rid, 1, 0, b"same", 0.0)
        assert monitor.consensus_safe
        assert monitor.distinct_digests_at(1) == {b"same"}

    def test_divergent_executions_flagged(self):
        monitor = SafetyMonitor(honest_replicas=frozenset({0, 1}))
        monitor.record_execution(0, 1, 0, b"aaaa", 0.0)
        monitor.record_execution(1, 1, 0, b"bbbb", 0.0)
        assert not monitor.consensus_safe
        assert monitor.violations[0].kind == "consensus-safety"

    def test_byzantine_divergence_not_flagged(self):
        monitor = SafetyMonitor(honest_replicas=frozenset({0, 1}))
        monitor.record_execution(0, 1, 0, b"aaaa", 0.0)
        monitor.record_execution(5, 1, 0, b"bbbb", 0.0)  # replica 5 is byzantine
        assert monitor.consensus_safe

    def test_rolled_back_execution_excused(self):
        monitor = SafetyMonitor(honest_replicas=frozenset({0, 1}))
        monitor.record_execution(0, 1, 0, b"aaaa", 0.0)
        monitor.record_rollback(0, 1)
        monitor.record_execution(1, 1, 0, b"bbbb", 0.0)
        assert monitor.consensus_safe

    def test_strict_mode_raises(self):
        monitor = SafetyMonitor(honest_replicas=frozenset({0, 1}), strict=True)
        monitor.record_execution(0, 1, 0, b"aaaa", 0.0)
        with pytest.raises(SafetyViolation):
            monitor.record_execution(1, 1, 0, b"bbbb", 0.0)

    def test_state_digest_divergence_flagged(self):
        monitor = SafetyMonitor(honest_replicas=frozenset({0, 1}))
        monitor.record_state_digest(0, 10, b"state-a")
        monitor.record_state_digest(1, 10, b"state-b")
        assert not monitor.rsm_safe

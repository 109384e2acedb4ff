"""Section 6: rollback attack on volatile versus persistent trusted hardware."""

from repro.common.config import SGX_ENCLAVE_COUNTER, SGX_PERSISTENT_COUNTER
from repro.core.claims import rollback_row


def test_rollback_on_volatile_hardware_breaks_safety(benchmark):
    row = benchmark.pedantic(
        lambda: rollback_row(SGX_ENCLAVE_COUNTER, "minbft", "host-snapshot"),
        rounds=1, iterations=1)
    print(f"\nvolatile ({row['hardware']}): "
          f"rollback={row['rollback_succeeded']}, "
          f"safety violated={row['safety_violated']}, "
          f"conflicting digests at seq 1={row['conflicting_digests_at_seq1']}")
    assert row["rollback_succeeded"]
    assert row["safety_violated"]
    assert row["conflicting_digests_at_seq1"] == 2


def test_rollback_on_persistent_hardware_is_impossible(benchmark):
    row = benchmark.pedantic(
        lambda: rollback_row(SGX_PERSISTENT_COUNTER, "minbft", "host-snapshot"),
        rounds=1, iterations=1)
    print(f"\npersistent ({row['hardware']}): "
          f"rollback={row['rollback_succeeded']}, "
          f"safety violated={row['safety_violated']}")
    assert not row["rollback_succeeded"]
    assert not row["safety_violated"]

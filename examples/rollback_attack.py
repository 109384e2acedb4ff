#!/usr/bin/env python3
"""Section 6: rollback attack on trusted counters.

A byzantine MinBFT primary serves transaction T to one honest replica, rolls
its (volatile) trusted counter back, and serves a conflicting transaction T'
to the other honest replica at the same sequence number.  Both client
observations reach f + 1 matching replies, yet the two honest replicas have
executed different transactions at sequence 1 — a consensus-safety violation.
Re-running the attack against persistent hardware (SGX persistent counters or
a TPM) shows the rollback being refused and safety holding.

Run with:  python examples/rollback_attack.py
"""

from repro.common.config import SGX_ENCLAVE_COUNTER, SGX_PERSISTENT_COUNTER, TPM_COUNTER
from repro.core.claims import rollback_row


def describe(hardware) -> None:
    row = rollback_row(hardware, "minbft", "host-snapshot")
    print(f"\n--- trusted hardware: {row['hardware']} "
          f"(persistent = {hardware.persistent}) ---")
    print(f"rollback possible                  : {row['rollback_succeeded']}")
    print(f"consensus safety violated          : {row['safety_violated']}")
    print(f"distinct batches executed at seq 1 : {row['conflicting_digests_at_seq1']}")
    print(f"replies for T / for T'             : {row['responses_for_first']} / "
          f"{row['responses_for_second']}")
    print(f"violations flagged                 : {row['violations']}")


def main() -> None:
    print("Rollback attack on MinBFT (Section 6)")
    describe(SGX_ENCLAVE_COUNTER)
    describe(SGX_PERSISTENT_COUNTER)
    describe(TPM_COUNTER)
    print("\nVolatile enclave counters let the host replay an old counter state")
    print("and equivocate; persistent counters and TPMs refuse, at the price of")
    print("millisecond-scale access latencies (see the Figure 8 benchmark).")


if __name__ == "__main__":
    main()

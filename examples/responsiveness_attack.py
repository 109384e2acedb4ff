#!/usr/bin/env python3
"""Section 5 / Figure 2: the responsiveness attack on MinBFT versus Pbft.

A byzantine primary proposes a transaction only to the byzantine replicas and
one honest replica r; the network temporarily delays r's Prepare messages to
the remaining honest replicas D.  In MinBFT (n = 2f + 1) the transaction
commits at r — consensus liveness holds — but the client can never collect the
f + 1 matching replies it needs, and the f replicas in D cannot muster the
f + 1 view-change votes required to replace the primary.  Pbft (n = 3f + 1)
runs the same scenario, replaces the primary, and the client completes.

Run with:  python examples/responsiveness_attack.py
"""

from repro.core.claims import responsiveness_row


def describe(name: str) -> None:
    row = responsiveness_row(name)
    print(f"\n--- {name} (n = {row['n']}, f = {row['f']}) ---")
    print(f"client received a validated answer : {row['client_completed']}")
    print(f"matching replies needed / received : {row['required_responses']} / "
          f"{row['responses_at_client']}")
    print(f"honest replicas that executed      : {row['honest_replicas_executed']}")
    print(f"view changes completed             : {row['view_changes_completed']}")
    print(f"view-change votes collected        : {row['view_change_votes']}")


def main() -> None:
    print("Responsiveness attack (Section 5, Figure 2)")
    describe("minbft")
    describe("pbft")
    print("\nMinBFT commits the transaction but the client is stuck below its")
    print("f+1 reply quorum and the view change never gathers f+1 votes; Pbft's")
    print("larger quorums force enough honest replicas into every decision that")
    print("a view change recovers the system and the client completes.")


if __name__ == "__main__":
    main()

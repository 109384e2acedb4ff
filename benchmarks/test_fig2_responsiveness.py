"""Figure 2 / Section 5: responsiveness attack on MinBFT versus Pbft."""

from repro.core.claims import responsiveness_row


def test_fig2_minbft_loses_responsiveness(benchmark):
    row = benchmark.pedantic(
        lambda: responsiveness_row("minbft", f=2), rounds=1, iterations=1)
    print(f"\nMinBFT: client completed={row['client_completed']}, "
          f"honest replicas executed={row['honest_replicas_executed']}, "
          f"view changes completed={row['view_changes_completed']}")
    assert not row["client_completed"]
    assert row["honest_replicas_executed"] == 1
    assert row["view_changes_completed"] == 0


def test_fig2_pbft_stays_responsive(benchmark):
    row = benchmark.pedantic(
        lambda: responsiveness_row("pbft", f=2), rounds=1, iterations=1)
    print(f"\nPbft: client completed={row['client_completed']}, "
          f"honest replicas executed={row['honest_replicas_executed']}, "
          f"view changes completed={row['view_changes_completed']}")
    assert row["client_completed"]
    assert row["honest_replicas_executed"] >= row["f"] + 1

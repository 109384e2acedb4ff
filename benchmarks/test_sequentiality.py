"""Section 7: sequential consensus demonstration and throughput bound."""

from repro.core.claims import sequential_throughput_bound, sequentiality_row


def test_sequentiality_demo(benchmark):
    row = benchmark(sequentiality_row)
    print(f"\nout-of-order Append rejected: {row['out_of_order_rejected']}; "
          f"sequential bound {row['sequential_bound_tx_s']:.0f} tx/s vs "
          f"parallel estimate {row['parallel_estimate_tx_s']:.0f} tx/s")
    assert row["out_of_order_rejected"]
    assert row["parallel_estimate_tx_s"] > row["sequential_bound_tx_s"]


def test_throughput_bound_matches_paper_back_of_envelope(benchmark):
    # Section 9.9: at 10 ms access latency, throughput degrades to
    # batch size x 1 s / 10 ms = 10 k tx/s for a batch of 100.
    bound = benchmark(sequential_throughput_bound, 100, 1, 10_000.0)
    assert round(bound) == 10_000

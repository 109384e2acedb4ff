#!/usr/bin/env python3
"""Figure 6(vi)/(vii): spreading replicas across the paper's six regions.

Deploys Flexi-BFT and MinBFT over 1..6 of the paper's regions (San Jose,
Ashburn, Sydney, Sao Paulo, Montreal, Marseille, used in that order) and
reports throughput and latency.  Quorum-based protocols only wait for the
fastest quorum, so latency is bounded by a couple of WAN hops rather than by
the farthest region.

Run with:  python examples/wan_deployment.py
"""

from repro.net.topology import PAPER_REGIONS
from repro.runtime import DeploymentSpec, ExperimentScale, build_config

SCALE = ExperimentScale(
    name="example", f=1, num_clients=80, batch_size=10,
    warmup_batches=2, measured_batches=8, worker_threads=8)


def main() -> None:
    print("Wide-area replication across the paper's regions (Figure 6 vi/vii)")
    for protocol in ("flexi-bft", "minbft"):
        print(f"\n{protocol}:")
        print("  regions  throughput (tx/s)  mean latency (ms)")
        for count in range(1, len(PAPER_REGIONS) + 1):
            regions = PAPER_REGIONS[:count]
            config = build_config(protocol, SCALE, regions=regions)
            with DeploymentSpec(config).build() as deployment:
                result = deployment.run_until_target()
            print(f"  {count:^7d}  {result.metrics.throughput_tx_s:16.0f}  "
                  f"{result.metrics.mean_latency_ms:17.2f}")
    print("\nLatency jumps when the quorum first needs a remote region and then")
    print("flattens: additional far regions never enter the critical quorum.")


if __name__ == "__main__":
    main()

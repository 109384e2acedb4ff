#!/usr/bin/env python3
"""Figure 8: how trusted-hardware access latency shapes protocol choice.

Sweeps the trusted-counter access cost from in-enclave speeds (tens of
microseconds) to TPM territory (tens of milliseconds) and reports the peak
throughput of Flexi-ZZ, MinZZ and MinBFT.  Flexi-ZZ touches the counter once
per consensus at the primary only, so it dominates while accesses are cheap;
once a single access costs milliseconds, every protocol collapses towards the
``batch size / access latency`` bound and the differences vanish — the paper's
argument for why better hardware will make trust-bft attractive again.

Run with:  python examples/trusted_hardware_sweep.py
"""

from repro.common.config import SGX_ENCLAVE_COUNTER
from repro.common.types import ms
from repro.runtime import DeploymentSpec, ExperimentScale, build_config

SCALE = ExperimentScale(
    name="example", f=1, num_clients=160, batch_size=20,
    warmup_batches=2, measured_batches=10, worker_threads=8)

ACCESS_COSTS_MS = (0.025, 1.0, 2.5, 5.0, 10.0, 30.0)
PROTOCOLS = ("flexi-zz", "minzz", "minbft")


def main() -> None:
    print("Trusted counter access cost sweep (Figure 8)")
    header = "access cost (ms)".ljust(18) + "".join(p.rjust(12) for p in PROTOCOLS)
    print(header)
    print("-" * len(header))
    for access_ms in ACCESS_COSTS_MS:
        hardware = SGX_ENCLAVE_COUNTER.with_latency(ms(access_ms))
        cells = []
        for protocol in PROTOCOLS:
            config = build_config(protocol, SCALE, hardware=hardware)
            with DeploymentSpec(config).build() as deployment:
                result = deployment.run_until_target()
            cells.append(f"{result.metrics.throughput_tx_s:11.0f}")
        print(f"{access_ms:<18}" + " ".join(cells))
    print("\nWith fast counters Flexi-ZZ leads; with slow counters every")
    print("protocol is bound by the single serial trusted access per batch.")


if __name__ == "__main__":
    main()

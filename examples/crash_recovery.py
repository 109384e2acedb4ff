"""Crash, restart and rejoin: the recovery subsystem end to end.

Three demonstrations:

1. ``figure_recovery`` — a FaultPlan crashes a replica mid-run and
   restarts it; the table reports the throughput dip and the time until the
   deployment is back above 90% of its pre-crash rate.
2. A manual schedule with a partition: the cut-off replica falls behind,
   and the lag trigger makes it state-transfer back after the heal.
3. The restart-based rollback attack: a byzantine primary power-cycles its
   replica; a volatile counter resets (safety violation, caught by the
   safety monitor), a persistent one resumes (attack defeated).

Run with::

    PYTHONPATH=src python examples/crash_recovery.py
"""

from repro.common.config import (
    DeploymentConfig,
    ExperimentConfig,
    ProtocolConfig,
    ROLLBACK_PROTECTED_COUNTER,
    SGX_ENCLAVE_COUNTER,
    WorkloadConfig,
)
from repro.common.types import ms, seconds
from repro.core.claims import rollback_row
from repro.recovery import FaultPlan, FaultSchedule, heal_at, partition_at
from repro.runtime import DeploymentSpec, SMALL_SCALE, figure_recovery, print_rows


def recovery_figure() -> None:
    plan = FaultPlan("crash-restart", crash_s=0.5, restart_s=0.9, end_s=1.8)
    rows = figure_recovery(SMALL_SCALE, protocols=("minbft", "flexi-bft"),
                           plan=plan)
    print_rows("Recovery: crash at 0.5s, restart at 0.9s", rows)


def partition_lag_demo() -> None:
    config = DeploymentConfig(
        protocol="flexi-bft", f=1,
        workload=WorkloadConfig(num_clients=12, records=200),
        protocol_config=ProtocolConfig(batch_size=4, worker_threads=4,
                                       checkpoint_interval=20),
        experiment=ExperimentConfig(seed=9))
    schedule = FaultSchedule((
        partition_at((3,), ms(200), name="isolate-3"),
        heal_at(ms(600), name="isolate-3"),
    ))
    with DeploymentSpec(config, fault_schedule=schedule).build() as deployment:
        deployment.start_clients()
        deployment.sim.run(until=seconds(1.5))
        lagged = deployment.replica(3)
        print("\n== Partition + heal: lag-triggered state transfer ==")
        print(f"replica 3 recoveries: started={lagged.stats.recoveries_started} "
              f"completed={lagged.stats.recoveries_completed}")
        print(f"last executed: {[r.ledger.last_executed for r in deployment.replicas]}")
        print(f"consensus safe: {deployment.safety.consensus_safe}")


def restart_rollback_demo() -> None:
    print("\n== Restart-based rollback attack (Section 6 variant) ==")
    for hardware in (SGX_ENCLAVE_COUNTER, ROLLBACK_PROTECTED_COUNTER):
        row = rollback_row(hardware, "minbft", "restart")
        outcome = ("SAFETY VIOLATED" if row["safety_violated"]
                   else "attack defeated")
        level = "persistent" if hardware.persistent else "volatile"
        print(f"{level:>10} ({row['hardware']}): counter reset="
              f"{row['rollback_succeeded']}, "
              f"digests at seq 1={row['conflicting_digests_at_seq1']} -> {outcome}")


if __name__ == "__main__":
    recovery_figure()
    partition_lag_demo()
    restart_rollback_demo()

"""Recovery experiment: crash → restart → state transfer → rejoin.

Beyond the paper's figures: a timed :class:`~repro.recovery.schedule.FaultSchedule`
crashes one replica mid-run and restarts it; the restarted replica replays its
durable store, fetches the missing suffix from peers and rejoins consensus.
The table reports dip depth and time-to-recover per protocol and per
trusted-hardware persistence level.
"""

from repro.recovery import FaultPlan
from repro.runtime import ExperimentScale, figure_recovery, print_rows

#: Smaller than BENCH_SCALE: the experiment runs a fixed simulated timeline
#: (crash at 0.4s, restart at 0.7s) rather than a completion target, so the
#: client population is what controls the wall-clock cost.
RECOVERY_SCALE = ExperimentScale(
    name="recovery-bench", f=1, num_clients=24, batch_size=10,
    warmup_batches=2, measured_batches=8, worker_threads=4,
    max_sim_seconds=3.0)


def test_figure_recovery_dip_and_rejoin(benchmark):
    rows = benchmark.pedantic(
        lambda: figure_recovery(RECOVERY_SCALE,
                                protocols=("minbft", "flexi-bft"),
                                plan=FaultPlan("crash-restart", crash_s=0.4,
                                               restart_s=0.7, end_s=1.4)),
        rounds=1, iterations=1)
    print_rows("Recovery: dip depth and time-to-recover", rows)
    assert len(rows) == 4
    for row in rows:
        # The crashed replica completed state transfer and rejoined, and its
        # replayed history agreed with the honest majority.
        assert row["recovered"]
        assert row["consensus_safe"]
        # The deployment itself climbed back to >= 90% of its pre-crash rate.
        assert row["time_to_recover_s"] is not None
        assert row["post_recovery_tx_s"] >= 0.9 * row["pre_crash_tx_s"]

    # The persistence bit affects what survives a restart, not failure-free
    # performance: both hardware levels share one access latency.
    by_level = {(row["protocol"], row["persistent"]): row for row in rows}
    for protocol in ("minbft", "flexi-bft"):
        assert (by_level[(protocol, False)]["throughput_tx_s"]
                == by_level[(protocol, True)]["throughput_tx_s"])

"""Unit tests: durable store, fault schedules, recovery analysis, CLI."""

import pytest

from repro.common.config import FaultConfig, RecoveryConfig
from repro.common.errors import ConfigurationError
from repro.common.types import ms
from repro.crypto.digest import digest
from repro.protocols.messages import RequestBatch
from repro.recovery import (
    FaultSchedule,
    crash_at,
    heal_at,
    partition_at,
    recovery_summary,
    restart_at,
    windowed_throughput,
)
from repro.recovery.store import DurableStore
from repro.runtime.metrics import CompletionRecord
from repro.sim.kernel import Simulator
from repro.common.types import RequestId
from repro.protocols.messages import ClientRequest
from repro.execution.state_machine import Operation


def batch(tag: str) -> RequestBatch:
    request = ClientRequest(
        request_id=RequestId(client=f"client-{tag}", number=1),
        operations=(Operation(action="write", key=tag, value=tag),))
    return RequestBatch(requests=(request,))


class TestDurableStore:
    def make_store(self, fsync_us: float = 10.0) -> tuple[Simulator, DurableStore]:
        sim = Simulator()
        store = DurableStore("replica-0", sim,
                             RecoveryConfig(fsync_latency_us=fsync_us,
                                            replay_latency_us=2.0))
        return sim, store

    def test_wal_append_and_suffix(self):
        _, store = self.make_store()
        for seq in (1, 2, 3):
            b = batch(str(seq))
            store.append_batch(seq, 0, b, b.digest())
        assert [r.seq for r in store.wal_suffix(1)] == [2, 3]
        assert store.wal_record(2).batch_digest == batch("2").digest()
        assert len(store) == 3

    def test_checkpoint_truncates_covered_prefix(self):
        _, store = self.make_store()
        for seq in range(1, 6):
            b = batch(str(seq))
            store.append_batch(seq, 0, b, b.digest())
        store.save_checkpoint(3, digest("state@3"), {"k": "v"})
        assert store.checkpoint_seq == 3
        assert [r.seq for r in store.wal_suffix(0)] == [4, 5]
        assert store.stats.wal_records_truncated == 3
        # An older checkpoint never overwrites a newer one.
        assert store.save_checkpoint(2, digest("state@2"), {}) is None
        assert store.checkpoint_seq == 3

    def test_fsync_latency_charged_on_serial_disk(self):
        sim, store = self.make_store(fsync_us=10.0)
        b = batch("a")
        first = store.append_batch(1, 0, b, b.digest())
        second = store.append_batch(2, 0, b, b.digest())
        assert first == 10.0
        assert second == 20.0  # the disk is serial: writes queue
        assert store.take_pending_durable_at() == 20.0
        assert store.take_pending_durable_at() is None

    def test_wipe_discards_everything(self):
        _, store = self.make_store()
        b = batch("a")
        store.append_batch(1, 0, b, b.digest())
        store.save_checkpoint(1, b.digest(), {})
        store.wipe()
        assert store.checkpoint is None
        assert len(store) == 0

    def test_replay_cost_scales_with_records(self):
        _, store = self.make_store()
        assert store.replay_cost_us() == 0.0
        b = batch("a")
        store.append_batch(1, 0, b, b.digest())
        store.append_batch(2, 0, b, b.digest())
        assert store.replay_cost_us() == 4.0  # 2 records x 2 us


class TestFaultScheduleValidation:
    def test_events_sorted_by_time(self):
        schedule = FaultSchedule((restart_at(0, ms(500)), crash_at(0, ms(100))))
        assert [e.at_us for e in schedule.events] == [ms(100), ms(500)]
        schedule.validate(n=4, f=1)

    def test_rejects_double_crash_without_restart(self):
        schedule = FaultSchedule((crash_at(0, 1.0), crash_at(0, 2.0)))
        with pytest.raises(ConfigurationError):
            schedule.validate(n=4, f=2)

    def test_rejects_restart_without_crash(self):
        with pytest.raises(ConfigurationError):
            FaultSchedule((restart_at(0, 1.0),)).validate(n=4, f=1)

    def test_rejects_more_than_f_concurrently_down(self):
        schedule = FaultSchedule((crash_at(0, 1.0), crash_at(1, 2.0)))
        with pytest.raises(ConfigurationError):
            schedule.validate(n=4, f=1)
        # Sequential crash/restart cycles of distinct replicas are fine.
        staggered = FaultSchedule((crash_at(0, 1.0), restart_at(0, 2.0),
                                   crash_at(1, 3.0), restart_at(1, 4.0)))
        staggered.validate(n=4, f=1)

    def test_rejects_out_of_range_replicas(self):
        with pytest.raises(ConfigurationError):
            FaultSchedule((crash_at(7, 1.0),)).validate(n=4, f=1)
        with pytest.raises(ConfigurationError):
            FaultSchedule((partition_at((1, 9), 1.0),)).validate(n=4, f=2)

    def test_rejects_nameless_heal(self):
        with pytest.raises(ConfigurationError):
            FaultSchedule((heal_at(1.0, name=""),)).validate(n=4, f=1)

    def test_crashed_replicas_listed(self):
        schedule = FaultSchedule((crash_at(2, 1.0), restart_at(2, 2.0)))
        assert schedule.crashed_replicas() == {2}


class TestFaultConfigOverlap:
    def test_rejects_replica_listed_as_crashed_and_byzantine(self):
        config = FaultConfig(crashed=(0, 1), byzantine=(1, 2))
        with pytest.raises(ConfigurationError, match="both crashed and"):
            config.validate(n=10, f=3)

    def test_disjoint_fault_sets_accepted(self):
        FaultConfig(crashed=(0,), byzantine=(1,)).validate(n=7, f=2)


class TestRecoveryConfigValidation:
    def test_rejects_negative_latencies(self):
        with pytest.raises(ConfigurationError):
            RecoveryConfig(fsync_latency_us=-1.0).validate()


def completion(at_us: float) -> CompletionRecord:
    return CompletionRecord(client="c", request_id=RequestId("c", 1),
                            submitted_at=at_us - 100.0, completed_at=at_us,
                            operations=1)


class TestRecoveryAnalysis:
    def test_windowed_throughput_buckets(self):
        records = [completion(50.0), completion(150.0), completion(199.0)]
        buckets = windowed_throughput(records, bucket_us=100.0, until_us=400.0)
        # 1 completion in [0,100), 2 in [100,200), silence afterwards.
        assert buckets[:2] == [10_000.0, 20_000.0]
        assert buckets[2:] == [0.0, 0.0, 0.0]

    def test_recovery_summary_detects_dip_and_recovery(self):
        records = ([completion(t) for t in range(100, 1000, 10)]      # healthy
                   + [completion(t) for t in range(1000, 1500, 100)]  # dip
                   + [completion(t) for t in range(1500, 2500, 10)])  # recovered
        summary = recovery_summary(records, crash_us=1000.0, restart_us=1400.0,
                                   end_us=2500.0, bucket_us=100.0)
        assert summary.pre_crash_tx_s == pytest.approx(100_000.0, rel=0.15)
        assert summary.dip_fraction > 0.8
        assert summary.recovered
        assert summary.time_to_recover_s == pytest.approx(0.0001, abs=0.0002)
        assert summary.post_recovery_tx_s >= 0.9 * summary.pre_crash_tx_s

    def test_recovery_summary_reports_non_recovery(self):
        records = [completion(t) for t in range(100, 1000, 10)]
        summary = recovery_summary(records, crash_us=1000.0, restart_us=1200.0,
                                   end_us=3000.0, bucket_us=100.0)
        assert not summary.recovered
        assert summary.time_to_recover_s is None
        assert summary.dip_fraction == 1.0

    def test_rejects_misordered_timeline(self):
        with pytest.raises(ValueError):
            recovery_summary([], crash_us=500.0, restart_us=400.0, end_us=600.0)


class TestCli:
    def test_list_names_every_experiment(self, capsys):
        from repro.__main__ import main
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "figure_recovery" in out and "figure5" in out

    def test_run_rejects_protocols_for_fixed_experiments(self):
        from repro.__main__ import run_experiment
        with pytest.raises(SystemExit):
            run_experiment("figure5", "small", ["pbft"])

    def test_run_refuses_protocols_where_the_help_says_it_does(self, capsys):
        from repro.__main__ import main
        with pytest.raises(SystemExit,
                           match="figure5 does not take a protocol selection"):
            main(["run", "figure5", "--protocols", "pbft"])
        with pytest.raises(SystemExit):
            main(["run", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "experiments that fix their protocol reject this" in help_text

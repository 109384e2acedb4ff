"""Unit tests for the sharding subsystem: router, spec and metrics."""

import pytest

from repro.common.config import DeploymentConfig, WorkloadConfig
from repro.common.errors import ConfigurationError
from repro.common.types import RequestId
from repro.execution.state_machine import Operation
from repro.runtime.metrics import MetricsCollector
from repro.runtime.spec import DeploymentSpec
from repro.sharding import ShardRouter, ShardedRunMetrics


class TestShardRouter:
    def test_every_key_in_range(self):
        router = ShardRouter(4)
        for i in range(500):
            assert 0 <= router.shard_of(f"user{i}") < 4

    def test_routing_is_stable_across_instances(self):
        a, b = ShardRouter(8, seed=3), ShardRouter(8, seed=3)
        keys = [f"user{i}" for i in range(300)]
        assert [a.shard_of(k) for k in keys] == [b.shard_of(k) for k in keys]

    def test_seed_varies_the_partition(self):
        keys = [f"user{i}" for i in range(300)]
        a = [ShardRouter(4, seed=0).shard_of(k) for k in keys]
        b = [ShardRouter(4, seed=1).shard_of(k) for k in keys]
        assert a != b

    def test_single_shard_owns_everything(self):
        router = ShardRouter(1)
        assert all(router.shard_of(f"user{i}") == 0 for i in range(100))

    def test_partition_preserves_operations_and_order(self):
        router = ShardRouter(3)
        operations = [Operation(action="read", key=f"user{i}") for i in range(60)]
        by_shard = router.partition(operations)
        assert sum(len(ops) for ops in by_shard.values()) == len(operations)
        for shard, ops in by_shard.items():
            assert all(router.shard_of(op.key) == shard for op in ops)
            # Per-shard order matches the original stream order.
            expected = [op for op in operations if router.shard_of(op.key) == shard]
            assert ops == expected

    def test_shard_of_operation_matches_shard_of_key(self):
        router = ShardRouter(5)
        op = Operation(action="write", key="user42", value="v")
        assert router.shard_of_operation(op) == router.shard_of("user42")

    def test_distribution_counts_all_keys(self):
        router = ShardRouter(4)
        counts = router.distribution(f"user{i}" for i in range(400))
        assert sorted(counts) == [0, 1, 2, 3]
        assert sum(counts.values()) == 400

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardRouter(0)


class TestShardedSpec:
    """A sharded deployment is built from a ``DeploymentSpec`` alone."""

    def test_defaults_validate(self):
        DeploymentSpec(DeploymentConfig(), num_shards=2).validate()

    def test_num_clients_defaults_to_base_workload(self):
        base = DeploymentConfig(workload=WorkloadConfig(num_clients=6))
        with DeploymentSpec(base, num_shards=2).build() as deployment:
            assert len(deployment.clients) == 6
        with DeploymentSpec(base, num_shards=2,
                            num_clients=3).build() as deployment:
            assert len(deployment.clients) == 3

    def test_groups_get_distinct_seeds_from_the_base_config(self):
        base = DeploymentConfig(workload=WorkloadConfig(num_clients=2))
        with DeploymentSpec(base, num_shards=3).build() as deployment:
            assert deployment.config is base
            seeds = [group.config.experiment.seed
                     for group in deployment.groups]
        assert seeds == [base.experiment.seed * 1000 + shard
                         for shard in range(3)]
        assert len(set(seeds)) == 3


class TestShardedRunMetrics:
    def record(self, collector, number, start, end, operations=1):
        request_id = RequestId(client="c", number=number)
        collector.record_submission("c", request_id, start, operations)
        collector.record_completion("c", request_id, start, end, operations)

    def test_per_shard_and_global_counts(self):
        logical, shards = MetricsCollector(), [MetricsCollector(), MetricsCollector()]
        self.record(shards[0], 1, 0.0, 100.0)
        self.record(shards[1], 1, 0.0, 120.0)
        self.record(logical, 1, 0.0, 120.0, operations=2)
        summary = ShardedRunMetrics.summarise(logical, shards, warmup_fraction=0.0)
        assert summary.completed_requests == 1
        assert [m.completed_requests for m in summary.shard_metrics] == [1, 1]
        assert summary.global_metrics.completed_operations == 2

    def test_summary_reports_imbalance(self):
        shards = [MetricsCollector(), MetricsCollector()]
        for i in range(1, 4):  # shard 0 serves three ops, shard 1 serves one
            self.record(shards[0], i, 0.0, 1000.0 * i)
        self.record(shards[1], 1, 0.0, 1000.0)
        summary = ShardedRunMetrics.summarise(MetricsCollector(), shards,
                                              warmup_fraction=0.0)
        assert summary.num_shards == 2
        assert summary.imbalance == pytest.approx(3 / 2)
        assert summary.aggregate_throughput_tx_s == pytest.approx(
            sum(m.throughput_tx_s for m in summary.shard_metrics))

    def test_as_row_exposes_per_shard_columns(self):
        logical, shards = MetricsCollector(), [MetricsCollector(), MetricsCollector()]
        self.record(shards[0], 1, 0.0, 100.0)
        self.record(shards[1], 1, 0.0, 100.0)
        self.record(logical, 1, 0.0, 100.0)
        row = ShardedRunMetrics.summarise(logical, shards,
                                          warmup_fraction=0.0).as_row()
        assert row["shards"] == 2
        assert "shard0_tx_s" in row and "shard1_tx_s" in row
        assert "aggregate_throughput_tx_s" in row and "imbalance" in row

    def test_empty_run_summarises_to_zero(self):
        summary = ShardedRunMetrics.summarise(
            MetricsCollector(), [MetricsCollector() for _ in range(3)])
        assert summary.imbalance == 0.0
        assert summary.aggregate_throughput_tx_s == 0.0

    def test_sharded_row_has_no_verify_cache_columns(self):
        from repro.runtime.experiments import ExperimentScale, build_config

        scale = ExperimentScale(
            name="verify-cache-test", f=1, num_clients=8, batch_size=4,
            warmup_batches=1, measured_batches=3, worker_threads=4,
            max_sim_seconds=10.0)
        config = build_config("minbft", scale, num_clients=16)
        with DeploymentSpec(config, num_shards=2).build() as deployment:
            row = deployment.run_until_target().as_row()
        assert not any("verify" in key for key in row)

"""Unit tests for the sharding subsystem: router, config and metrics."""

import pytest

from repro.common.config import DeploymentConfig, WorkloadConfig
from repro.common.errors import ConfigurationError
from repro.common.types import RequestId
from repro.execution.state_machine import Operation
from repro.sharding import ShardRouter, ShardedConfig, ShardedMetrics


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


class TestShardedConfig:
    def test_defaults_validate(self):
        ShardedConfig(base=DeploymentConfig()).validate()

    def test_bad_scaleout_knobs_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardedConfig(base=DeploymentConfig(), num_shards=0).validate()
        with pytest.raises(ConfigurationError):
            ShardedConfig(base=DeploymentConfig(), num_clients=0).validate()

    def test_num_clients_defaults_to_base_workload(self):
        base = DeploymentConfig(workload=WorkloadConfig(num_clients=200))
        assert ShardedConfig(base=base).effective_num_clients == 200
        assert ShardedConfig(base=base, num_clients=32).effective_num_clients == 32

    def test_shard_configs_get_distinct_seeds(self):
        config = ShardedConfig(base=DeploymentConfig(), num_shards=3)
        seeds = {config.shard_config(s).experiment.seed for s in range(3)}
        assert len(seeds) == 3

    def test_shard_config_out_of_range_rejected(self):
        config = ShardedConfig(base=DeploymentConfig(), num_shards=2)
        with pytest.raises(ConfigurationError):
            config.shard_config(2)

    def test_with_shards_is_functional(self):
        config = ShardedConfig(base=DeploymentConfig(), num_shards=2)
        assert config.with_shards(4).num_shards == 4
        assert config.num_shards == 2


class TestShardedMetrics:
    def record(self, collector, number, start, end, operations=1):
        request_id = RequestId(client="c", number=number)
        collector.record_submission("c", request_id, start, operations)
        collector.record_completion("c", request_id, start, end, operations)

    def test_per_shard_and_global_counts(self):
        metrics = ShardedMetrics(num_shards=2)
        self.record(metrics.shard_collectors[0], 1, 0.0, 100.0)
        self.record(metrics.shard_collectors[1], 1, 0.0, 120.0)
        self.record(metrics.global_collector, 1, 0.0, 120.0, operations=2)
        assert metrics.completed_count == 1
        assert metrics.shard_completed_count(0) == 1
        assert metrics.shard_completed_count(1) == 1

    def test_summary_reports_imbalance(self):
        metrics = ShardedMetrics(num_shards=2)
        for i in range(1, 4):  # shard 0 serves three ops, shard 1 serves one
            self.record(metrics.shard_collectors[0], i, 0.0, 1000.0 * i)
        self.record(metrics.shard_collectors[1], 1, 0.0, 1000.0)
        summary = metrics.summarise(warmup_fraction=0.0)
        assert summary.num_shards == 2
        assert summary.imbalance == pytest.approx(3 / 2)
        assert summary.aggregate_throughput_tx_s == pytest.approx(
            sum(m.throughput_tx_s for m in summary.shard_metrics))

    def test_as_row_exposes_per_shard_columns(self):
        metrics = ShardedMetrics(num_shards=2)
        self.record(metrics.shard_collectors[0], 1, 0.0, 100.0)
        self.record(metrics.shard_collectors[1], 1, 0.0, 100.0)
        self.record(metrics.global_collector, 1, 0.0, 100.0)
        row = metrics.summarise(warmup_fraction=0.0).as_row()
        assert row["shards"] == 2
        assert "shard0_tx_s" in row and "shard1_tx_s" in row
        assert "aggregate_throughput_tx_s" in row and "imbalance" in row

    def test_empty_run_summarises_to_zero(self):
        summary = ShardedMetrics(num_shards=3).summarise()
        assert summary.imbalance == 0.0
        assert summary.aggregate_throughput_tx_s == 0.0


class TestPerShardVerifyCacheStats:
    """The shared KeyStore attributes cache traffic to the signer's shard."""

    def build(self, num_shards=2):
        from repro.runtime.experiments import ExperimentScale, build_config
        from repro.runtime.spec import DeploymentSpec

        scale = ExperimentScale(
            name="verify-cache-test", f=1, num_clients=8, batch_size=4,
            warmup_batches=1, measured_batches=3, worker_threads=4,
            max_sim_seconds=10.0)
        config = build_config("minbft", scale,
                              num_clients=scale.num_clients * num_shards)
        return DeploymentSpec(config, num_shards=num_shards).build()

    def test_scope_resolver_maps_group_identities(self):
        from repro.sharding.deployment import shard_scope

        assert shard_scope("shard0/replica-1") == 0
        assert shard_scope("shard3/replica-0") == 3
        assert shard_scope("tc/shard2/replica-1") == 2
        assert shard_scope("client-5") is None
        assert shard_scope("shardX/replica-1") is None

    def test_run_attributes_cache_traffic_per_shard(self):
        deployment = self.build(num_shards=2)
        result = deployment.run_until_target()
        cache = result.metrics.shard_verify_cache
        assert len(cache) == 2
        assert all(stats.lookups > 0 for stats in cache)
        rates = result.metrics.shard_verify_hit_rates
        assert len(rates) == 2
        assert all(0.0 <= rate <= 1.0 for rate in rates)
        assert rates == tuple(stats.hit_rate for stats in cache)
        report = result.metrics.verify_cache_report()
        assert [row["shard"] for row in report] == [0, 1]
        # The per-scope split must tally with what the shared store counted
        # for group identities (global client traffic is unattributed).
        store = deployment.keystore
        assert (sum(s.verify_cache_hits for s in cache)
                <= store.stats.verify_cache_hits)
        assert (sum(s.verify_cache_misses for s in cache)
                <= store.stats.verify_cache_misses)

    def test_row_schema_is_unchanged_by_cache_stats(self):
        deployment = self.build(num_shards=2)
        row = deployment.run_until_target().as_row()
        assert not any("verify" in key for key in row)

    def test_single_group_deployments_pay_nothing(self):
        from repro.runtime.experiments import ExperimentScale, build_config
        from repro.runtime.deployment import Deployment

        scale = ExperimentScale(
            name="verify-cache-test", f=1, num_clients=4, batch_size=4,
            warmup_batches=1, measured_batches=2, worker_threads=4,
            max_sim_seconds=10.0)
        deployment = Deployment(build_config("minbft", scale))
        deployment.run_until_target()
        # No resolver installed: the per-scope dict stays empty.
        assert deployment.keystore.scoped_stats == {}

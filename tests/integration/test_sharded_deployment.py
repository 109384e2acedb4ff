"""Integration tests for sharded multi-group deployments."""

import pytest

from repro.common.config import (
    DeploymentConfig,
    ExperimentConfig,
    ProtocolConfig,
    WorkloadConfig,
)
from repro.common.types import ms
from repro.runtime.spec import DeploymentSpec


def sharded_spec(protocol="flexi-bft", num_shards=2, clients=24, batch=5,
                 ops_per_request=1, records=200, seed=5) -> DeploymentSpec:
    base = DeploymentConfig(
        protocol=protocol, f=1,
        workload=WorkloadConfig(num_clients=clients, records=records,
                                requests_per_client_message=ops_per_request),
        protocol_config=ProtocolConfig(
            batch_size=batch, worker_threads=4, checkpoint_interval=50,
            request_timeout_us=ms(60.0), view_change_timeout_us=ms(60.0)),
        experiment=ExperimentConfig(warmup_batches=1, measured_batches=8,
                                    seed=seed),
    )
    return DeploymentSpec(base, num_shards=num_shards, num_clients=clients)


def executed_keys(group) -> set:
    """Keys of every operation a group's initial primary has run through consensus."""
    keys = set()
    for inst in group.replicas[0].instances.values():
        if inst.executed and inst.batch is not None:
            for request in inst.batch.requests:
                keys.update(op.key for op in request.operations)
    return keys


class TestShardedRuns:
    @pytest.mark.parametrize("protocol", ["pbft", "minbft", "flexi-bft", "flexi-zz"])
    def test_two_shards_complete_target_safely(self, protocol):
        with sharded_spec(protocol).build() as deployment:
            result = deployment.run_until_target(target_requests=80)
        assert result.metrics.completed_requests >= 60
        assert result.consensus_safe
        assert result.rsm_safe

    def test_every_shard_serves_traffic(self):
        with sharded_spec(num_shards=4, clients=40).build() as deployment:
            result = deployment.run_until_target(target_requests=160)
        assert all(count > 0 for count in result.per_shard_completed.values())

    def test_operations_only_execute_on_their_owning_shard(self):
        with sharded_spec(num_shards=4, clients=40).build() as deployment:
            deployment.run_until_target(target_requests=160)
            for shard, group in enumerate(deployment.groups):
                keys = executed_keys(group)
                assert keys, f"shard {shard} executed nothing"
                assert all(deployment.shard_of(key) == shard for key in keys)

    def test_cross_shard_requests_merge_responses(self):
        spec = sharded_spec(num_shards=4, clients=12, ops_per_request=4)
        with spec.build() as deployment:
            result = deployment.run_until_target(target_requests=60)
            clients = deployment.clients
        assert result.metrics.completed_requests >= 48
        multi = sum(c.stats.multi_shard_requests for c in clients)
        subs = sum(c.stats.sub_requests for c in clients)
        completed = sum(c.stats.completed for c in clients)
        assert multi > 0
        assert subs > completed  # logical requests fan out into sub-requests
        # Nothing remains half-merged once a client reports completion.
        for client in clients:
            if client.stats.completed == client.stats.submitted:
                assert not client.outstanding_shards

    def test_lane_clients_reject_start(self):
        """Lanes have no workload of their own; only the coordinator drives them."""
        from repro.common.errors import ConfigurationError

        with sharded_spec().build() as deployment:
            with pytest.raises(ConfigurationError):
                deployment.clients[0].lanes[0].start()

    def test_lane_double_submit_rejected(self):
        """The closed loop keeps one sub-request outstanding per lane."""
        from repro.common.errors import SimulationError
        from repro.execution.state_machine import Operation

        with sharded_spec().build() as deployment:
            lane = deployment.clients[0].lanes[0]
            operations = (Operation(action="read", key="user1"),)
            lane.submit(operations)
            with pytest.raises(SimulationError):
                lane.submit(operations)

    def test_deterministic_given_seed(self):
        results = []
        for _ in range(2):
            with sharded_spec().build() as deployment:
                result = deployment.run_until_target(target_requests=80)
            results.append((result.events, result.messages_sent,
                            result.metrics.completed_requests,
                            result.metrics.as_row()))
        assert results[0] == results[1]

    def test_groups_are_fault_isolated(self):
        """A crashed non-primary replica in shard 0 leaves other shards untouched."""
        with sharded_spec(num_shards=2, clients=24).build() as deployment:
            deployment.groups[0].replicas[3].crash()
            result = deployment.run_until_target(target_requests=80)
        assert result.consensus_safe
        assert result.metrics.completed_requests >= 60
        assert result.per_shard_completed[1] > 0

    def test_single_shard_matches_regular_deployment_shape(self):
        with sharded_spec(num_shards=1).build() as deployment:
            result = deployment.run_until_target(target_requests=40)
        assert result.metrics.num_shards == 1
        assert result.metrics.imbalance == pytest.approx(1.0)
        assert result.metrics.aggregate_throughput_tx_s == pytest.approx(
            result.metrics.shard_metrics[0].throughput_tx_s)

    def test_aggregate_throughput_scales_with_shards(self):
        """The acceptance shape: 1 -> 2 -> 4 shards grows aggregate throughput."""
        aggregates = []
        for shards in (1, 2, 4):
            spec = sharded_spec(num_shards=shards, clients=24 * shards, batch=5)
            with spec.build() as deployment:
                result = deployment.run_until_target(target_requests=80 * shards)
            aggregates.append(result.metrics.aggregate_throughput_tx_s)
        assert aggregates == sorted(aggregates)
        assert aggregates[-1] > 2.0 * aggregates[0]


class TestShardedObservabilityPin:
    """A sharded run with health collection, pinned byte for byte.

    Nothing else runs a sharded deployment with observability on, so this
    pins the row (with its ``health_*`` and ``shard<i>_tx_s`` columns), the
    per-shard completion counts and the aggregated health.
    """

    def test_two_shard_flexi_bft_row_with_health_is_pinned(self):
        from repro.obsv.health import ObservabilityConfig
        from repro.perf.scenarios import metrics_digest
        from repro.runtime.experiments import ExperimentScale, build_config
        from repro.runtime.spec import DeploymentSpec

        scale = ExperimentScale(
            name="sharded-health-pin", f=1, num_clients=16, batch_size=4,
            warmup_batches=1, measured_batches=3, worker_threads=4,
            max_sim_seconds=20.0)
        spec = DeploymentSpec(build_config("flexi-bft", scale), num_shards=2,
                              observe=ObservabilityConfig(collect_health=True))
        with spec.build() as deployment:
            result = deployment.run_until_target()
            aggregate = deployment.health().aggregate()
        row = result.as_row()
        assert row["shards"] == 2
        assert "shard0_tx_s" in row and "shard1_tx_s" in row
        assert row["health_replicas"] == 8
        assert metrics_digest([row])[:16] == "aaf7918406667d0f"
        assert result.per_shard_completed == {0: 16, 1: 16}
        assert aggregate == {
            "replicas": 8, "active": 8, "recovering": 0, "max_view": 0,
            "min_last_executed": 4, "max_checkpoint_lag": 6,
            "queued_jobs": 0, "pending_requests": 1,
            "verify_hit_rate": 0.6667}

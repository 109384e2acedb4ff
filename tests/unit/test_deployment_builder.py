"""Unit tests for the deployment builder and experiment scaffolding."""

import pytest

from repro.common.config import DeploymentConfig, ProtocolConfig, WorkloadConfig
from repro.common.errors import ConfigurationError
from repro.runtime import Deployment, SMALL_SCALE, build_config
from repro.runtime.experiments import PAPER_SCALE


class TestDeploymentBuilder:
    def test_replica_count_follows_protocol_regime(self):
        with Deployment(DeploymentConfig(protocol="pbft", f=2)) as pbft:
            assert pbft.n == 7
        with Deployment(DeploymentConfig(protocol="minbft", f=2)) as minbft:
            assert minbft.n == 5

    def test_sequential_protocols_get_pinned_window(self):
        with Deployment(DeploymentConfig(protocol="minbft", f=1)) as deployment:
            assert deployment.protocol_config.max_outstanding == 1
        with Deployment(DeploymentConfig(protocol="flexi-bft", f=1)) as parallel:
            assert parallel.protocol_config.max_outstanding > 1

    def test_trusted_components_only_built_when_needed(self):
        with Deployment(DeploymentConfig(protocol="pbft", f=1)) as pbft:
            assert all(r.trusted is None for r in pbft.replicas)
        with Deployment(DeploymentConfig(protocol="minbft", f=1)) as minbft:
            assert all(r.trusted is not None for r in minbft.replicas)

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigurationError):
            Deployment(DeploymentConfig(protocol="raft", f=1))

    def test_crashed_replicas_marked_inactive(self):
        config = DeploymentConfig(protocol="pbft", f=1)
        config = config.with_updates(
            faults=config.faults.__class__(crashed=(3,)))
        with Deployment(config) as deployment:
            assert not deployment.replicas[3].active
            assert 3 not in deployment.safety.honest_replicas

    def test_clients_match_workload_config(self):
        config = DeploymentConfig(protocol="pbft", f=1,
                                  workload=WorkloadConfig(num_clients=7))
        with Deployment(config) as deployment:
            assert len(deployment.clients) == 7
            assert len(deployment.network.node_names()) == 4 + 7

    def test_run_for_fixed_duration(self):
        config = DeploymentConfig(
            protocol="flexi-zz", f=1,
            workload=WorkloadConfig(num_clients=10, records=50),
            protocol_config=ProtocolConfig(batch_size=2, worker_threads=2))
        with Deployment(config) as deployment:
            deployment.start_clients()
            result = deployment.run_for(20_000.0)
            assert result.sim_time_s == pytest.approx(0.02)
            assert deployment.metrics.completed_count > 0


class TestExperimentScaffolding:
    def test_build_config_applies_scale_defaults(self):
        config = build_config("flexi-zz", SMALL_SCALE)
        assert config.protocol == "flexi-zz"
        assert config.f == SMALL_SCALE.f
        assert config.protocol_config.batch_size == SMALL_SCALE.batch_size

    def test_build_config_overrides(self):
        config = build_config("pbft", SMALL_SCALE, f=3, num_clients=9,
                              batch_size=7, crashed=(1,))
        assert (config.f, config.workload.num_clients,
                config.protocol_config.batch_size, config.faults.crashed) == (3, 9, 7, (1,))

    def test_paper_scale_matches_paper_parameters(self):
        assert PAPER_SCALE.f == 8
        assert max(PAPER_SCALE.f_values) == 32
        assert max(PAPER_SCALE.client_values) == 80_000
        assert PAPER_SCALE.wan_f == 20
        assert 200.0 in PAPER_SCALE.tc_latencies_ms

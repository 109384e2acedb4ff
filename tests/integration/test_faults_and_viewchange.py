"""Fault-injection integration tests: crashes, view changes, WAN, hardware sweep."""

import dataclasses
from functools import partial

import pytest

from repro.common.config import (
    DeploymentConfig,
    ExperimentConfig,
    FaultConfig,
    NetworkConfig,
    ProtocolConfig,
    SGX_ENCLAVE_COUNTER,
    WorkloadConfig,
)
from repro.common.types import RequestId, ms
from repro.protocols.messages import CommitAck, NewView
from repro.runtime import Deployment
from repro.runtime.spec import DeploymentSpec


def config_with(protocol, f=1, clients=20, batch=5, crashed=(), regions=("san-jose",),
                hardware=SGX_ENCLAVE_COUNTER, request_timeout_ms=60.0, seed=5):
    return DeploymentConfig(
        protocol=protocol, f=f, trusted_hardware=hardware,
        network=NetworkConfig(region_names=regions),
        workload=WorkloadConfig(num_clients=clients, records=100),
        protocol_config=ProtocolConfig(
            batch_size=batch, worker_threads=4, checkpoint_interval=50,
            request_timeout_us=ms(request_timeout_ms),
            view_change_timeout_us=ms(request_timeout_ms)),
        faults=FaultConfig(crashed=crashed),
        experiment=ExperimentConfig(warmup_batches=1, measured_batches=8, seed=seed),
    )


class TestForgedReplicaMessages:
    """A byzantine backup's stray message is dropped, not fatal to the run."""

    def _run_with(self, message):
        config = config_with("flexi-bft", clients=10)
        config = dataclasses.replace(config, faults=FaultConfig(byzantine=(3,)))
        with DeploymentSpec(config).build() as deployment:
            deployment.sim.schedule(ms(1.0), partial(
                deployment.network.send, "replica-3", "replica-2", message))
            result = deployment.run_until_target(target_requests=40)
            assert deployment.metrics.completed_count >= 40
        assert result.consensus_safe

    def test_new_view_from_a_replica_that_is_not_the_views_primary(self):
        self._run_with(NewView(view=1, primary=3, view_change_replicas=(0, 1, 3),
                               proposals=()))

    def test_message_no_replica_handles(self):
        self._run_with(CommitAck(request_id=RequestId(client="client-0", number=1),
                                 seq=1, view=0, replica=3, result_digest=b"r"))


class TestNonPrimaryCrash:
    @pytest.mark.parametrize("protocol", ["pbft", "minbft", "flexi-bft", "flexi-zz"])
    def test_quorum_protocols_survive_one_crash(self, protocol):
        config = config_with(protocol)
        n = Deployment(config).n
        config = config_with(protocol, crashed=(n - 1,))
        result = Deployment(config).run_until_target(target_requests=40)
        assert result.metrics.completed_requests >= 32
        assert result.consensus_safe

    def test_flexi_zz_stays_on_fast_path_under_crash(self):
        config = config_with("flexi-zz", crashed=(3,))
        deployment = Deployment(config)
        deployment.run_until_target(target_requests=40)
        assert all(c.stats.certificates_sent == 0 for c in deployment.clients)

    def test_zyzzyva_falls_back_to_slow_path_under_crash(self):
        config = config_with("zyzzyva", crashed=(3,), clients=6, batch=2)
        deployment = Deployment(config)
        result = deployment.run_until_target(target_requests=12)
        assert result.metrics.completed_requests >= 9
        assert sum(c.stats.certificates_sent for c in deployment.clients) > 0

    def test_minzz_falls_back_to_slow_path_under_crash(self):
        config = config_with("minzz", crashed=(2,), clients=6, batch=2)
        deployment = Deployment(config)
        result = deployment.run_until_target(target_requests=12)
        assert result.metrics.completed_requests >= 9
        assert sum(c.stats.certificates_sent for c in deployment.clients) > 0

    def test_crash_degrades_speculative_all_reply_protocols_more(self):
        """Figure 7: Flexi-ZZ keeps its latency, MinZZ/Zyzzyva pay extra round trips."""
        flexi = Deployment(config_with("flexi-zz", crashed=(3,), clients=10)) \
            .run_until_target(target_requests=30)
        minzz = Deployment(config_with("minzz", crashed=(2,), clients=10)) \
            .run_until_target(target_requests=30)
        assert flexi.metrics.mean_latency_ms < minzz.metrics.mean_latency_ms


class TestPrimaryCrashViewChange:
    @pytest.mark.parametrize("protocol", ["pbft", "flexi-bft", "flexi-zz"])
    def test_primary_crash_triggers_view_change_and_progress(self, protocol):
        config = config_with(protocol, clients=8, batch=2, request_timeout_ms=40.0)
        deployment = Deployment(config)
        deployment.replicas[0].crash()
        deployment.start_clients()
        deployment.sim.run(until=2_000_000.0,
                           stop_when=lambda: deployment.metrics.completed_count >= 16)
        assert deployment.metrics.completed_count >= 16
        active_views = {r.view for r in deployment.replicas if r.active}
        assert max(active_views) >= 1
        assert deployment.safety.consensus_safe


class TestWanDeployment:
    def test_wan_latency_increases_with_regions(self):
        local = Deployment(config_with("flexi-zz", clients=10)) \
            .run_until_target(target_requests=30)
        wan = Deployment(config_with("flexi-zz", clients=10,
                                     regions=("san-jose", "ashburn", "sydney"))) \
            .run_until_target(target_requests=30)
        assert wan.metrics.mean_latency_ms > local.metrics.mean_latency_ms
        assert wan.consensus_safe

    def test_latency_bounded_by_quorum_not_by_all_regions(self):
        """With 6 regions, quorums bound latency to a couple of WAN hops.

        The paper observes that latency stays roughly constant as regions are
        added because quorums never wait for the farthest replicas; here we
        check latency stays within a few intercontinental round trips rather
        than accumulating across all six regions.
        """
        config = config_with("flexi-bft", f=1, clients=10,
                             regions=("san-jose", "ashburn", "sydney",
                                      "sao-paulo", "montreal", "marseille"))
        result = Deployment(config).run_until_target(target_requests=30)
        assert result.consensus_safe
        assert result.metrics.p50_latency_ms < 350.0


class TestTrustedHardwareLatency:
    def test_slow_hardware_collapses_trust_bft_throughput(self):
        fast = Deployment(config_with("minbft", clients=20)) \
            .run_until_target(target_requests=60)
        slow_spec = SGX_ENCLAVE_COUNTER.with_latency(ms(10.0))
        slow = Deployment(config_with("minbft", clients=20, hardware=slow_spec)) \
            .run_until_target(target_requests=60)
        assert slow.metrics.throughput_tx_s < fast.metrics.throughput_tx_s / 2

    def test_flexitrust_less_sensitive_to_hardware_latency_than_minbft(self):
        slow_spec = SGX_ENCLAVE_COUNTER.with_latency(ms(5.0))
        flexi = Deployment(config_with("flexi-bft", clients=20, hardware=slow_spec)) \
            .run_until_target(target_requests=60)
        minbft = Deployment(config_with("minbft", clients=20, hardware=slow_spec)) \
            .run_until_target(target_requests=60)
        assert flexi.metrics.throughput_tx_s > minbft.metrics.throughput_tx_s

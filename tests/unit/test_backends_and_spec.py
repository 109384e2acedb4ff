"""Backend registry and the DeploymentSpec single build path.

The deployment layer is backend-parameterized: one spec must construct any
deployment shape (plain, sharded, fault-scheduled) on any kernel/transport
pair.  These tests pin the registry semantics, the spec's validation and the
classes each (backend, shape) combination actually builds.
"""

from __future__ import annotations

import pytest

from repro.backends import (
    BACKENDS,
    Backend,
    LiveBackend,
    LiveTcpBackend,
    SimBackend,
    resolve_backend,
)
from repro.common.errors import ConfigurationError
from repro.net.tcp import TcpTransport
from repro.net.network import Network
from repro.protocols.family import FIGURE5_BARS
from repro.realtime import LiveNetwork
from repro.realtime.kernel import AsyncioKernel
from repro.recovery import FaultSchedule, crash_at, restart_at
from repro.runtime.deployment import Deployment
from repro.runtime.experiments import ExperimentScale, build_config
from repro.runtime.spec import DeploymentSpec
from repro.sharding.deployment import ShardedDeployment
from repro.sim.kernel import Simulator

_SCALE = ExperimentScale(
    name="spec-test", f=1, num_clients=4, batch_size=4,
    warmup_batches=1, measured_batches=2, worker_threads=4,
    max_sim_seconds=10.0)


def _config(protocol: str = "minbft"):
    return build_config(protocol, _SCALE)


class TestBackendRegistry:
    def test_three_backends_are_registered(self):
        assert set(BACKENDS) == {"sim", "live", "live-tcp"}

    def test_resolve_by_name_and_alias(self):
        assert isinstance(resolve_backend("sim"), SimBackend)
        assert isinstance(resolve_backend("live"), LiveBackend)
        assert isinstance(resolve_backend("asyncio"), LiveBackend)
        assert isinstance(resolve_backend("live-tcp"), LiveTcpBackend)
        assert isinstance(resolve_backend("tcp"), LiveTcpBackend)

    def test_resolve_none_is_the_simulator(self):
        assert resolve_backend(None) is BACKENDS["sim"]

    def test_resolve_passes_instances_through(self):
        backend = BACKENDS["live"]
        assert resolve_backend(backend) is backend

    def test_unknown_backend_raises(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            resolve_backend("quantum")

    def test_realtime_flags(self):
        assert not BACKENDS["sim"].realtime
        assert BACKENDS["live"].realtime
        assert BACKENDS["live-tcp"].realtime

    def test_kernel_factories(self):
        assert isinstance(BACKENDS["sim"].build_kernel(), Simulator)
        for name in ("live", "live-tcp"):
            kernel = BACKENDS[name].build_kernel()
            try:
                assert isinstance(kernel, AsyncioKernel)
            finally:
                kernel.close()


class TestDeploymentBackendParameter:
    def test_default_backend_is_the_simulator(self):
        deployment = Deployment(_config())
        assert deployment.backend.name == "sim"
        assert isinstance(deployment.sim, Simulator)
        assert type(deployment.network) is Network

    def test_live_backend_builds_queue_transport(self):
        with Deployment(_config(), backend="live") as deployment:
            assert isinstance(deployment.sim, AsyncioKernel)
            assert isinstance(deployment.network, LiveNetwork)

    def test_tcp_backend_builds_tcp_transport(self):
        with Deployment(_config(), backend="live-tcp") as deployment:
            assert isinstance(deployment.sim, AsyncioKernel)
            assert isinstance(deployment.network, TcpTransport)

    def test_a_live_deployment_is_the_plain_class_on_a_realtime_backend(self):
        with DeploymentSpec(_config(), backend="live").build() as deployment:
            assert type(deployment) is Deployment
            assert deployment.backend.realtime
        with DeploymentSpec(_config(), backend="live",
                            num_shards=2).build() as sharded:
            assert type(sharded) is ShardedDeployment
            assert sharded.backend.realtime
            assert isinstance(sharded.sim, AsyncioKernel)

    def test_close_on_the_simulator_releases_references_only(self):
        deployment = Deployment(_config())
        result = deployment.run_until_target(target_requests=4)
        deployment.close()  # must not raise
        deployment.close()  # nor the second time
        after = deployment.collect_result()
        assert (after.events, after.messages_sent, after.per_replica_executed) \
            == (result.events, result.messages_sent, result.per_replica_executed)

    def test_simulator_path_never_imports_asyncio(self):
        # ``import repro`` and a whole simulated run must not pay for the
        # event-loop machinery only the live backends need.
        import os
        import subprocess
        import sys

        import repro

        script = (
            "import sys\n"
            "import repro\n"
            "assert 'asyncio' not in sys.modules, 'import repro pulled asyncio'\n"
            "from repro import Deployment, DeploymentConfig\n"
            "deployment = Deployment(DeploymentConfig(protocol='flexi-bft'))\n"
            "result = deployment.run_until_target(target_requests=20)\n"
            "deployment.close()\n"
            "assert result.consensus_safe\n"
            "assert 'asyncio' not in sys.modules, 'a sim run pulled asyncio'\n")
        source_root = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [source_root] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr


class TestDeploymentSpec:
    def test_plain_sim_build(self):
        deployment = DeploymentSpec(_config()).build()
        assert type(deployment) is Deployment
        assert deployment.backend.name == "sim"

    def test_sharded_build(self):
        with DeploymentSpec(_config(), num_shards=3).build() as deployment:
            assert isinstance(deployment, ShardedDeployment)
            assert deployment.num_shards == 3
            assert deployment.backend.name == "sim"

    def test_sharded_build_forwards_client_and_router_knobs(self):
        with DeploymentSpec(_config(), num_shards=2, num_clients=3,
                            router_seed=7).build() as deployment:
            assert len(deployment.clients) == 3
            assert deployment.router.seed == 7

    def test_fault_schedule_reaches_the_deployment(self):
        schedule = FaultSchedule((crash_at(2, 1000.0), restart_at(2, 5000.0)))
        deployment = DeploymentSpec(_config(), fault_schedule=schedule).build()
        assert deployment.fault_schedule is schedule

    def test_per_group_fault_schedules_reach_the_groups(self):
        schedule = FaultSchedule((crash_at(2, 1000.0), restart_at(2, 5000.0)))
        with DeploymentSpec(_config(), num_shards=2,
                            fault_schedules={1: schedule}).build() as deployment:
            assert deployment.groups[0].fault_schedule is None
            assert deployment.groups[1].fault_schedule is schedule

    def test_plain_spec_rejects_per_group_schedules(self):
        schedule = FaultSchedule((crash_at(2, 1000.0),))
        with pytest.raises(ConfigurationError, match="address shards"):
            DeploymentSpec(_config(), fault_schedules={0: schedule}).build()

    def test_sharded_spec_rejects_single_schedule(self):
        schedule = FaultSchedule((crash_at(2, 1000.0),))
        with pytest.raises(ConfigurationError, match="per-group"):
            DeploymentSpec(_config(), num_shards=2,
                           fault_schedule=schedule).build()

    def test_spec_builds_equivalent_simulated_results(self):
        # The spec path and the direct constructor are the same build path:
        # identical configuration must produce identical simulated rows.
        direct = Deployment(_config()).run_until_target(target_requests=8)
        via_spec = DeploymentSpec(_config()).build().run_until_target(
            target_requests=8)
        assert direct.as_row() == via_spec.as_row()

    @pytest.mark.parametrize("backend", ["live", "live-tcp"])
    def test_spec_builds_live_deployments(self, backend):
        deployment = DeploymentSpec(_config(), backend=backend).build()
        try:
            result = deployment.run_until_target(target_requests=6)
            assert result.metrics.completed_requests > 0
            assert result.consensus_safe
        finally:
            deployment.close()


class TestSpecValidation:
    """``validate`` refuses what a build would ignore or reject late."""

    @pytest.mark.parametrize("knobs", [{"num_clients": 3}, {"router_seed": 9},
                                       {"num_clients": 3, "router_seed": 9}],
                             ids=["clients", "router-seed", "both"])
    def test_plain_spec_refuses_sharding_knobs(self, knobs):
        spec = DeploymentSpec(_config(), **knobs)
        with pytest.raises(ConfigurationError, match="sharded"):
            spec.validate()

    @pytest.mark.parametrize("knobs", [{"num_shards": 0}, {"num_shards": -1},
                                       {"num_shards": 2, "num_clients": 0}],
                             ids=["zero-shards", "negative-shards", "zero-clients"])
    def test_sharded_spec_refuses_non_positive_counts(self, knobs):
        with pytest.raises(ConfigurationError):
            DeploymentSpec(_config(), **knobs).validate()

    @pytest.mark.parametrize("shard", [2, -1])
    def test_sharded_spec_refuses_schedules_for_missing_shards(self, shard):
        schedule = FaultSchedule((crash_at(2, 1000.0),))
        spec = DeploymentSpec(_config(), num_shards=2,
                              fault_schedules={shard: schedule})
        with pytest.raises(ConfigurationError, match="shards"):
            spec.validate()

    def test_router_seed_zero_is_the_plain_default(self):
        DeploymentSpec(_config(), router_seed=0).validate()

    @pytest.mark.parametrize("protocol", ["minbft", "flexi-bft", "zyzzyva"])
    def test_trusted_usage_refuses_a_protocol_other_than_pbft(self, protocol):
        spec = DeploymentSpec(_config(protocol), trusted_usage=FIGURE5_BARS[-1])
        with pytest.raises(ConfigurationError, match="trusted_usage"):
            spec.validate()

    def test_trusted_usage_refuses_a_sharded_spec(self):
        spec = DeploymentSpec(_config("pbft"), num_shards=2,
                              trusted_usage=FIGURE5_BARS[-1])
        with pytest.raises(ConfigurationError, match="trusted_usage"):
            spec.validate()

    def test_trusted_usage_is_hashed_only_when_set(self):
        plain = DeploymentSpec(_config("pbft"))
        plain.validate()
        assert "trusted_usage" not in plain.describe()
        hashes = {DeploymentSpec(_config("pbft"), trusted_usage=bar).cell_hash()
                  for bar in FIGURE5_BARS}
        assert len(hashes) == len(FIGURE5_BARS)
        assert plain.cell_hash() not in hashes


class TestCustomBackendObject:
    def test_a_backend_instance_is_usable_directly(self):
        class CountingSim(SimBackend):
            name = "counting-sim"
            built = 0

            def build_kernel(self):
                type(self).built += 1
                return super().build_kernel()

        backend = CountingSim()
        assert isinstance(backend, Backend)
        deployment = Deployment(_config(), backend=backend)
        assert deployment.backend is backend
        assert CountingSim.built == 1

"""Sharded deployment: *K* independent consensus groups on one timeline.

The FlexiTrust protocols remove the sequential trusted counter from the
critical path so consensus can run many parallel instances; the natural next
step is to run many parallel *groups*.  ``DeploymentSpec(config,
num_shards=K).build()`` returns a :class:`ShardedDeployment`: ``K`` replica
groups — each a full :class:`~repro.runtime.deployment.Deployment`
(replicas, network, trusted hosts, safety monitor, metrics) sharing one
kernel and key store — with the keyspace partitioned over them by a
:class:`~repro.sharding.router.ShardRouter`, driven by cross-shard
:class:`~repro.workload.sharded_client.ShardedClient` instances.

Groups are fault-isolated: each has its own network, safety monitor and
primary, so a crash or view change in one shard leaves the others untouched.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

from ..backends import resolve_backend
from ..crypto.keystore import KeyStore
from ..net.network import Network
from ..obsv.health import ObservabilityConfig
from ..obsv.trace import Tracer
from ..protocols.base import BaseReplica
from ..runtime.deployment import Deployment, RunLoop, RunResult
from ..runtime.metrics import MetricsCollector
from ..sim.rng import RngRegistry
from ..workload.sharded_client import ShardedClient
from ..workload.ycsb import YcsbWorkload
from .metrics import ShardedRunMetrics
from .router import ShardRouter

if TYPE_CHECKING:
    from ..runtime.spec import DeploymentSpec


class ShardedDeployment(RunLoop):
    """*K* consensus groups over a partitioned keyspace on one kernel.

    Everything comes from the spec: ``config`` is every group's base
    configuration (group ``k`` runs it with experiment seed
    ``seed * 1000 + k``, so jitter differs across groups while the whole run
    stays reproducible from the base seed), and ``num_shards``,
    ``num_clients``, ``router_seed``, ``fault_schedules``, ``backend`` and
    ``observe`` shape the rest.  All groups share one kernel — one simulated
    timeline, or one real event loop — while each gets its own transport.
    """

    def __init__(self, spec: "DeploymentSpec") -> None:
        spec.validate()
        config = spec.config
        self.config = config
        self.experiment = config.experiment
        self.backend = resolve_backend(spec.backend)
        self.num_shards = spec.num_shards
        self.sim = self.backend.build_kernel()
        # One tracer for the whole timeline: every group's transport and
        # replicas record into the same ring, distinguished by node names
        # (the ``shard<K>/`` prefix).
        self.observe = spec.observe if spec.observe is not None else ObservabilityConfig()
        self.tracer = Tracer(self.sim) if self.observe.trace else None
        if self.tracer is not None:
            self.sim.set_tracer(self.tracer)
        self.health_samples: list[dict] = []
        base_seed = config.experiment.seed
        self.rng = RngRegistry(base_seed)
        self.keystore = KeyStore(seed=base_seed)
        self.router = ShardRouter(self.num_shards, seed=spec.router_seed)
        #: logical (cross-shard) requests; each group's own ``metrics``
        #: collects the sub-requests it served.
        self.metrics = MetricsCollector()

        # Fault schedules address replicas *per group*: ``fault_schedules[2]``
        # crashes and restarts replicas of shard 2 only.
        self.groups: list[Deployment] = []
        for shard in range(self.num_shards):
            seed = base_seed * 1000 + shard
            self.groups.append(Deployment(
                replace(config, experiment=replace(config.experiment, seed=seed)),
                sim=self.sim, rng=RngRegistry(seed), keystore=self.keystore,
                name_prefix=f"shard{shard}/", build_clients=False,
                fault_schedule=spec.fault_schedules.get(shard),
                backend=self.backend, tracer=self.tracer))

        num_clients = (config.workload.num_clients if spec.num_clients is None
                       else spec.num_clients)
        self.clients: list[ShardedClient] = []
        for index in range(num_clients):
            name = f"client-{index}"
            workload = YcsbWorkload(config.workload,
                                    self.rng.stream(f"workload/{name}"))
            self.clients.append(ShardedClient(
                name=name, sim=self.sim, keystore=self.keystore,
                workload=workload, workload_config=config.workload,
                router=self.router, groups=self.groups,
                global_sink=self.metrics))

    def default_target_requests(self) -> int:
        """Per-group work comparable to a single-group run.

        The target scales with the shard count so every group commits
        roughly the configured number of measured batches.
        """
        return self.groups[0].default_target_requests() * self.num_shards

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Release backend resources across every group's transport.

        Like :meth:`Deployment.close <repro.runtime.deployment.Deployment.close>`
        this leaves the deployment readable, inert and free of reference
        cycles.
        """
        if self.backend.realtime:
            self.stop_clients()
        self.backend.teardown(self.sim, self.networks)
        for group in self.groups:
            group.close_nodes()
        for client in self.clients:
            client.close()

    def collect_result(self, warmup_fraction: float = 0.1) -> RunResult:
        """Snapshot metrics and substrate statistics across every group."""
        return self._result(
            ShardedRunMetrics.summarise(
                self.metrics, [group.metrics for group in self.groups],
                warmup_fraction),
            [group.safety for group in self.groups],
            per_shard_completed={shard: group.metrics.completed_count
                                 for shard, group in enumerate(self.groups)})

    # ----------------------------------------------------------- inspection
    @property
    def replicas(self) -> list[BaseReplica]:
        """Every group's replicas, in shard order."""
        return [replica for group in self.groups for replica in group.replicas]

    @property
    def networks(self) -> list[Network]:
        """Every group's transport, in shard order."""
        return [group.network for group in self.groups]

    def group(self, shard: int) -> Deployment:
        """The consensus group serving ``shard``."""
        return self.groups[shard]

    def shard_of(self, key: str) -> int:
        """The shard owning ``key`` (router shorthand)."""
        return self.router.shard_of(key)

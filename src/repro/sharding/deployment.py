"""Sharded deployment: *K* independent consensus groups on one timeline.

The FlexiTrust protocols remove the sequential trusted counter from the
critical path so consensus can run many parallel instances; the natural next
step is to run many parallel *groups*.  A :class:`ShardedDeployment` builds
``num_shards`` replica groups — each a full :class:`~repro.runtime.deployment.Deployment`
(replicas, network, trusted hosts, safety monitor) sharing one simulator and
key store — partitions the keyspace over them with a
:class:`~repro.sharding.router.ShardRouter`, and drives them with cross-shard
:class:`~repro.workload.sharded_client.ShardedClient` instances.

Groups are fault-isolated: each has its own network, safety monitor and
primary, so a crash or view change in one shard leaves the others untouched.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional, Union

from ..backends import Backend, resolve_backend
from ..common.errors import ConfigurationError
from ..crypto.keystore import KeyStore, KeyStoreStats
from ..obsv.health import ObservabilityConfig
from ..obsv.trace import Tracer
from ..recovery.schedule import FaultSchedule
from ..runtime.deployment import Deployment, RunLoop, substrate_columns
from ..sim.rng import RngRegistry
from ..workload.sharded_client import ShardedClient
from ..workload.ycsb import YcsbWorkload
from .config import ShardedConfig
from .metrics import ShardedMetrics, ShardedRunMetrics
from .router import ShardRouter


@dataclass
class ShardedRunResult:
    """Outcome of one sharded run: per-shard and global measurements."""

    metrics: ShardedRunMetrics
    sim_time_s: float
    events: int
    messages_sent: int
    trusted_accesses: int
    consensus_safe: bool
    rsm_safe: bool
    per_shard_completed: dict[int, int] = field(default_factory=dict)

    def as_row(self) -> dict:
        """Flat dictionary used by the experiment tables."""
        row = self.metrics.as_row()
        row.update(substrate_columns(self))
        return row


def shard_scope(identity: str) -> Optional[int]:
    """Shard index owning a signer identity, or ``None`` for global names.

    Group members are named ``shard<K>/replica-<i>`` (their trusted
    components ``tc/shard<K>/replica-<i>``); cross-shard clients are global
    and attributed to no shard.
    """
    name = identity[3:] if identity.startswith("tc/") else identity
    if not name.startswith("shard"):
        return None
    head = name.split("/", 1)[0]
    try:
        return int(head[len("shard"):])
    except ValueError:
        return None


class ShardedDeployment(RunLoop):
    """*K* consensus groups over a partitioned keyspace on one kernel.

    ``backend`` picks the kernel/transport pair for every group (``sim`` by
    default): all groups share one kernel — one simulated timeline, or one
    real event loop — while each group gets its own transport instance, so
    groups stay fault-isolated on every backend.
    """

    def __init__(self, config: ShardedConfig,
                 fault_schedules: Optional[dict[int, FaultSchedule]] = None,
                 backend: Union[str, Backend, None] = None,
                 observe: Optional[ObservabilityConfig] = None) -> None:
        config.validate()
        self.config = config
        self.experiment = config.base.experiment
        self.backend = resolve_backend(backend)
        self.num_shards = config.num_shards
        self.sim = self.backend.build_kernel()
        # One tracer for the whole timeline: every group's transport and
        # replicas record into the same ring, distinguished by node names
        # (the ``shard<K>/`` prefix).
        self.observe = observe if observe is not None else ObservabilityConfig()
        self.tracer = (Tracer(self.sim, capacity=self.observe.trace_capacity)
                       if self.observe.trace else None)
        if self.tracer is not None:
            self.sim.set_tracer(self.tracer)
        self.health_samples: list[dict] = []
        base_seed = config.base.experiment.seed
        self.rng = RngRegistry(base_seed)
        self.keystore = KeyStore(seed=base_seed)
        # The verification cache is deployment-global and shared by every
        # group: attribute its traffic to the signer's shard so contention
        # is measurable.  Measured hit rates are identical to the
        # single-shard rate through 32 shards, with the shared LRU far from
        # full (tests/unit/test_shard_verify_cache.py).
        self.keystore.set_scope_resolver(shard_scope)
        self.router = ShardRouter(config.num_shards, seed=config.router_seed)
        self.metrics = ShardedMetrics(config.num_shards)

        # One full deployment per group, on the shared simulator/key store.
        # Each group's rng registry is seeded from its shard_config, so
        # jitter streams are independent across shards but reproducible
        # from the base seed.  Fault schedules address replicas *per group*:
        # ``fault_schedules[2]`` crashes and restarts replicas of shard 2
        # only, leaving the other groups' timelines untouched.
        self.fault_schedules = dict(fault_schedules or {})
        unknown = sorted(s for s in self.fault_schedules
                         if not 0 <= s < config.num_shards)
        if unknown:
            raise ConfigurationError(
                f"fault schedules address shards {unknown}, but the "
                f"deployment only has shards 0..{config.num_shards - 1}")
        self.groups: list[Deployment] = []
        for shard in range(config.num_shards):
            shard_cfg = config.shard_config(shard)
            self.groups.append(Deployment(
                shard_cfg, sim=self.sim,
                rng=RngRegistry(shard_cfg.experiment.seed),
                keystore=self.keystore,
                name_prefix=f"shard{shard}/", build_clients=False,
                fault_schedule=self.fault_schedules.get(shard),
                backend=self.backend, tracer=self.tracer))

        self.clients: list[ShardedClient] = []
        for index in range(config.effective_num_clients):
            name = f"client-{index}"
            workload = YcsbWorkload(config.base.workload,
                                    self.rng.stream(f"workload/{name}"))
            self.clients.append(ShardedClient(
                name=name, sim=self.sim, keystore=self.keystore,
                workload=workload, workload_config=config.base.workload,
                router=self.router, groups=self.groups,
                global_sink=self.metrics.global_collector,
                shard_sinks=self.metrics.shard_collectors))

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
        self.backend.teardown(self.sim, [group.network for group in self.groups])
        for group in self.groups:
            group.close_nodes()
        for client in self.clients:
            client.close()

    def collect_result(self, warmup_fraction: float = 0.1) -> ShardedRunResult:
        """Snapshot metrics and substrate statistics across every group."""
        trusted_accesses = sum(
            replica.trusted.stats.total
            for group in self.groups for replica in group.replicas
            if replica.trusted is not None)
        metrics = self.metrics.summarise(
            warmup_fraction, shard_verify_cache=self.shard_verify_cache())
        if self.observe.collect_health:
            metrics = dataclasses.replace(
                metrics, health=self.health().aggregate())
        return ShardedRunResult(
            metrics=metrics,
            sim_time_s=self.sim.now / 1_000_000.0,
            events=self.sim.events_processed,
            messages_sent=sum(g.network.stats.messages_sent for g in self.groups),
            trusted_accesses=trusted_accesses,
            consensus_safe=all(g.safety.consensus_safe for g in self.groups),
            rsm_safe=all(g.safety.rsm_safe for g in self.groups),
            per_shard_completed={
                shard: self.metrics.shard_completed_count(shard)
                for shard in range(self.num_shards)},
        )

    # ----------------------------------------------------------- inspection
    def shard_verify_cache(self) -> tuple[KeyStoreStats, ...]:
        """Per-shard counter snapshots of the shared verification cache."""
        empty = KeyStoreStats()
        return tuple(
            KeyStoreStats(verify_cache_hits=stats.verify_cache_hits,
                          verify_cache_misses=stats.verify_cache_misses)
            for stats in (self.keystore.scoped_stats.get(shard, empty)
                          for shard in range(self.num_shards)))

    def group(self, shard: int) -> Deployment:
        """The consensus group serving ``shard``."""
        return self.groups[shard]

    def shard_of(self, key: str) -> int:
        """The shard owning ``key`` (router shorthand)."""
        return self.router.shard_of(key)

"""Deployment builder: replicas + clients + network for one protocol run.

A :class:`Deployment` wires every substrate together from a single
:class:`~repro.common.config.DeploymentConfig`: it creates the kernel, the
key store, the topology and network, one replica (with state machine, worker
pool, durable store and — when the protocol needs it — a trusted component
and its timed device) per seat, and the closed-loop clients.  Experiments
then either call :meth:`run_until_target` for throughput measurements or
drive the kernel directly for attack scenarios.

The build path is **backend-parameterized**: the ``backend`` argument (a
name or :class:`~repro.backends.Backend`) decides which kernel/transport
pair the deployment runs on — the deterministic simulator (``sim``, the
default), a real asyncio event loop with in-process queue transport
(``live``), or the same loop with a localhost TCP transport (``live-tcp``).
Every other line of the builder is identical across backends, which is the
point: the protocol logic measured live is byte-for-byte the logic the
simulator validates.

Replica *seats* outlive replica *objects*: :meth:`crash_replica` /
:meth:`restart_replica` (usually driven by a
:class:`~repro.recovery.schedule.FaultSchedule`) tear a replica down and
rebuild a fresh incarnation on the same seat.  The durable store and the
trusted device always survive a restart; the trusted component's *state*
survives only when the configured hardware is persistent — a volatile SGX
counter comes back at zero, which is the paper's Section 6 rollback surface.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Union

from ..backends import Backend, resolve_backend
from ..common.config import DeploymentConfig, sequential_variant
from ..common.errors import StallError
from ..common.types import Micros
from ..crypto.keystore import KeyStore
from ..execution.kvstore import KeyValueStore
from ..execution.safety import SafetyMonitor
from ..kernel import Kernel
from ..net.network import Network
from ..net.topology import Topology, build_topology
from ..obsv.health import DeploymentHealth, HealthSampler, ObservabilityConfig
from ..obsv.trace import Tracer
from ..obsv.watchdog import (StallWatchdog, deployment_health,
                             snapshot_diagnostics)
from ..protocols.base import BaseReplica, ReplicaContext
from ..protocols.family import GraftedPbftReplica, TrustedUsage
from ..protocols.registry import get_protocol
from ..recovery.schedule import FaultSchedule
from ..recovery.store import DurableStore
from ..sim.resources import SerialDevice
from ..sim.rng import RngRegistry
from ..trusted.component import TrustedComponentHost
from ..workload.client import Client
from ..workload.ycsb import VALUE_SIZE, YcsbWorkload
from .metrics import MetricsCollector, RunMetrics

if TYPE_CHECKING:
    from ..sharding.metrics import ShardedRunMetrics

#: one-way latency between two nodes of the same region (a datacenter hop).
INTRA_REGION_LATENCY_US: Micros = 120.0


def measurement_warmup_fraction(experiment) -> float:
    """Fraction of completions the measurement window trims as warmup."""
    return experiment.warmup_batches / max(
        1, experiment.warmup_batches + experiment.measured_batches)


@dataclass
class RunResult:
    """Outcome of one deployment run, plain or sharded.

    A sharded run's ``metrics`` are a
    :class:`~repro.sharding.metrics.ShardedRunMetrics` and it fills
    ``per_shard_completed``; a plain run fills ``per_replica_executed``.
    """

    metrics: Union[RunMetrics, "ShardedRunMetrics"]
    sim_time_s: float
    events: int
    messages_sent: int
    trusted_accesses: int
    consensus_safe: bool
    rsm_safe: bool
    per_replica_executed: dict[int, int] = field(default_factory=dict)
    #: sub-requests each shard completed (sharded runs only).
    per_shard_completed: dict[int, int] = field(default_factory=dict)

    def as_row(self) -> dict:
        """Flat dictionary used by the experiment tables."""
        row = self.metrics.as_row()
        row.update({
            "sim_time_s": round(self.sim_time_s, 3),
            "events": self.events,
            "messages_sent": self.messages_sent,
            "trusted_accesses": self.trusted_accesses,
            "consensus_safe": self.consensus_safe,
        })
        return row


class RunLoop:
    """How a deployment is run: the part plain and sharded deployments share.

    A subclass builds ``sim``, ``backend``, ``clients``, ``metrics``,
    ``observe``, ``health_samples`` and ``experiment`` (the
    ``ExperimentConfig`` that sizes a run), exposes ``replicas`` and
    ``networks``, and supplies :meth:`default_target_requests`, ``close``
    and ``collect_result``; starting and stopping load, the two ways to run,
    the live-backend stall watchdog and health sampling are the same for
    both.
    """

    # -------------------------------------------------------------- running
    def start_clients(self, stagger_us: Micros = 50.0) -> None:
        """Start every client, staggered slightly to avoid lockstep."""
        for index, client in enumerate(self.clients):
            client.start(initial_delay_us=index * stagger_us)

    def stop_clients(self) -> None:
        """Stop every client's closed loop (outstanding requests abandoned)."""
        for client in self.clients:
            client.stop()

    def run_until_target(self, target_requests: Optional[int] = None,
                         max_sim_time_us: Optional[Micros] = None):
        """Run until ``target_requests`` complete (or the time cap is hit).

        On the live backends ``max_sim_time_us`` bounds *wall-clock* time —
        there the two are the same clock.
        """
        if target_requests is None:
            target_requests = self.default_target_requests()
        if max_sim_time_us is None:
            max_sim_time_us = self.experiment.max_sim_time_us
        self.start_clients()
        watchdog = self._arm_watchdog(max_sim_time_us)
        sampler = self._start_health_sampler()
        try:
            # The sink pushes the stop when the target completes, instead of
            # the kernel polling the count after every event.  The hook is
            # cleared again, so the sink keeps no reference to the kernel
            # and no later run is stopped by a stale target.
            self.metrics.notify_at(target_requests, self.sim.request_stop)
            self.backend.run(self.sim, until_us=max_sim_time_us)
        finally:
            self.metrics.notify_at(None)
            if watchdog is not None:
                watchdog.cancel()
            if sampler is not None:
                sampler.stop()
            if self.backend.realtime:
                self.stop_clients()
        self._check_live_progress(target_requests)
        return self.collect_result(measurement_warmup_fraction(self.experiment))

    def run_for(self, duration_us: Micros):
        """Run for a fixed span of kernel time.

        On the simulator this drives attack/recovery scenarios that start
        their own clients; on the live backends (where a span of real time
        only measures something if load is offered) the clients are started
        and stopped around the run.
        """
        if self.backend.realtime:
            self.start_clients()
            self.backend.run_for(self.sim, duration_us)
            self.stop_clients()
        else:
            self.backend.run_for(self.sim, duration_us)
        return self.collect_result(warmup_fraction=0.0)

    def _result(self, metrics, monitors: list[SafetyMonitor],
                **per) -> RunResult:
        """A :class:`RunResult` of ``metrics`` plus the substrate counters."""
        if self.observe.collect_health:
            metrics = dataclasses.replace(
                metrics, health=self.health().aggregate())
        return RunResult(
            metrics=metrics,
            sim_time_s=self.sim.now / 1_000_000.0,
            events=self.sim.events_processed,
            messages_sent=sum(network.stats.messages_sent
                              for network in self.networks),
            trusted_accesses=sum(replica.trusted.stats.total
                                 for replica in self.replicas
                                 if replica.trusted is not None),
            consensus_safe=all(monitor.consensus_safe for monitor in monitors),
            rsm_safe=all(monitor.rsm_safe for monitor in monitors),
            **per)

    # -------------------------------------------------------- observability
    def health(self) -> DeploymentHealth:
        """Snapshot every replica's health plus kernel state, right now."""
        return deployment_health(self)

    def _arm_watchdog(self, cap_us: Optional[Micros]) -> Optional[StallWatchdog]:
        """Arm the stall watchdog on live backends (None on the simulator).

        On the simulator a wedged run simply drains its event queue and
        stops — no wall-clock is lost and determinism forbids extra events.
        On a live backend the same wedge burns real seconds until the cap,
        so the watchdog fires as soon as ``stall_after_us`` passes with zero
        completed requests: by default a third of the cap, clamped to
        [0.5s, 10s], or exactly ``observe.stall_after_us`` when set.
        """
        if not self.backend.realtime:
            return None
        stall_after = self.observe.stall_after_us
        if stall_after is None:
            cap = cap_us if cap_us is not None else 30_000_000.0
            stall_after = min(10_000_000.0, max(500_000.0, cap / 3.0))
        watchdog = StallWatchdog(
            self.sim, progress=lambda: self.metrics.completed_count,
            stall_after_us=stall_after, on_stall=self._on_stall)
        watchdog.arm()
        return watchdog

    def _on_stall(self, watchdog: StallWatchdog) -> None:
        """Watchdog callback: snapshot diagnostics, fail the run typed."""
        seconds = watchdog.stalled_for_us / 1_000_000.0
        bundle = snapshot_diagnostics(
            self, reason=f"no completed request for {seconds:.1f}s "
            f"(stall threshold {watchdog.stall_after_us / 1_000_000.0:.1f}s)")
        suspect = bundle["suspect"]
        self.sim.fail(StallError(
            f"live run stalled: {bundle['reason']}; suspect {suspect} "
            f"({bundle['suspect_reason']})",
            suspect=suspect, diagnostics=bundle))

    def _start_health_sampler(self) -> Optional[HealthSampler]:
        """Start periodic health sampling when an interval is configured."""
        interval = self.observe.health_interval_us
        if interval is None:
            return None
        sampler = HealthSampler(self.sim, self.health, interval)
        sampler.start()
        self.health_samples = sampler.samples
        return sampler

    def _check_live_progress(self, target_requests: int) -> None:
        """Turn a capped-but-short live run into a typed, diagnosed failure."""
        if not self.backend.realtime:
            return
        completed = self.metrics.completed_count
        if completed >= target_requests:
            return
        bundle = snapshot_diagnostics(
            self, reason=f"wall-clock cap hit at {completed}/{target_requests} "
            "completed requests")
        raise StallError(
            f"live run hit its wall-clock cap at {completed}/{target_requests} "
            f"completed requests; suspect {bundle['suspect']} "
            f"({bundle['suspect_reason']})",
            suspect=bundle["suspect"], diagnostics=bundle)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class Deployment(RunLoop):
    """A fully wired deployment of one protocol.

    By default a deployment owns every substrate it needs (kernel, rng
    registry, key store).  A sharded deployment instead passes shared
    substrates plus a ``name_prefix`` so several independent replica groups
    coexist on one timeline, and sets ``build_clients=False`` because its
    cross-shard clients are wired up separately.

    ``backend`` selects the kernel/transport pair (``sim`` / ``live`` /
    ``live-tcp``, or a :class:`~repro.backends.Backend` instance); the build
    path is otherwise identical across backends.  ``trusted_usage`` (one
    of Figure 5's bars) grafts that trusted use onto a Pbft deployment.
    """

    def __init__(self, config: DeploymentConfig,
                 trusted_usage: Optional[TrustedUsage] = None,
                 sim: Optional[Kernel] = None,
                 rng: Optional[RngRegistry] = None,
                 keystore: Optional[KeyStore] = None,
                 name_prefix: str = "",
                 build_clients: bool = True,
                 fault_schedule: Optional[FaultSchedule] = None,
                 backend: Union[str, Backend, None] = None,
                 observe: Optional[ObservabilityConfig] = None,
                 tracer: Optional[Tracer] = None) -> None:
        self.config = config
        self.experiment = config.experiment
        self.backend = resolve_backend(backend)
        self.spec = get_protocol(config.protocol)
        self.n = self.spec.replicas(config.f)
        config.validate(self.n)
        self.f = config.f
        self.trusted_usage = trusted_usage

        protocol_config = config.protocol_config
        if self.spec.sequential:
            protocol_config = sequential_variant(protocol_config)
        self.protocol_config = protocol_config

        self.sim = sim if sim is not None else self.backend.build_kernel()
        self.rng = rng if rng is not None else RngRegistry(config.experiment.seed)
        self.keystore = keystore if keystore is not None else KeyStore(
            seed=config.experiment.seed)
        self.metrics = MetricsCollector()
        self.name_prefix = name_prefix

        self.replica_names = [f"{name_prefix}replica-{i}" for i in range(self.n)]
        self.client_names = ([f"{name_prefix}client-{i}"
                              for i in range(config.workload.num_clients)]
                             if build_clients else [])

        topology = build_topology(self.replica_names, self.client_names,
                                  config.network.region_names,
                                  INTRA_REGION_LATENCY_US)
        self.topology = topology
        self.network = self._build_network(topology)

        # Observability: one tracer per timeline.  A sharded deployment
        # builds the tracer once and hands it to every group; a standalone
        # deployment builds its own when tracing is enabled.  With no tracer
        # every hook in the kernel/transport/protocol stack stays a None
        # check, so default runs are byte-identical to pre-tracing builds.
        self.observe = observe if observe is not None else ObservabilityConfig()
        self.tracer = tracer
        if self.tracer is None and self.observe.trace:
            self.tracer = Tracer(self.sim)
        if self.tracer is not None:
            self.sim.set_tracer(self.tracer)
            self.network.set_tracer(self.tracer)
        self.health_samples: list[dict] = []

        byzantine = set(config.faults.byzantine)
        crashed = set(config.faults.crashed)
        honest = frozenset(i for i in range(self.n)
                           if i not in byzantine and i not in crashed)
        self.safety = SafetyMonitor(honest_replicas=honest)

        self.stores = [DurableStore(name, self.sim, config.recovery)
                       for name in self.replica_names]
        self._trusted_devices: dict[int, SerialDevice] = {}

        self.replicas: list[BaseReplica] = []
        for replica_id in range(self.n):
            replica = self._build_replica(replica_id)
            self.replicas.append(replica)
            self.network.register(replica)
        for replica_id in crashed:
            self.replicas[replica_id].crash()

        self.fault_schedule = fault_schedule
        if fault_schedule is not None:
            fault_schedule.validate(self.n, self.f,
                                    static_crashed=config.faults.crashed,
                                    byzantine=config.faults.byzantine)
            fault_schedule.install(self)

        self.clients: list[Client] = []
        reply_policy = self.spec.reply_policy(self.n, self.f)
        for index, name in enumerate(self.client_names):
            workload = YcsbWorkload(config.workload,
                                    self.rng.stream(f"workload/{name}"))
            client = Client(
                name=name, sim=self.sim, network=self.network,
                keystore=self.keystore, workload=workload,
                workload_config=config.workload,
                replica_names=self.replica_names,
                reply_policy=reply_policy, sink=self.metrics,
                request_timeout_us=protocol_config.request_timeout_us,
                tracer=self.tracer)
            self.clients.append(client)
            self.network.register(client)

    # ------------------------------------------------------------- building
    def _build_network(self, topology: Topology) -> Network:
        """Build the transport for this deployment's backend."""
        return self.backend.build_network(self.sim, topology, self.rng)

    def _build_replica(self, replica_id: int,
                       trusted_override: Optional[TrustedComponentHost] = None
                       ) -> BaseReplica:
        trusted = trusted_override
        trusted_device = None if trusted is None else trusted.device
        if trusted is None and (self.spec.uses_trusted
                                or self.trusted_usage is not None):
            tc_key = self.keystore.register(f"tc/{self.replica_names[replica_id]}")
            trusted_device = self._trusted_devices.get(replica_id)
            if trusted_device is None:
                # The physical device outlives the replica object: a rebuilt
                # replica talks to the same (possibly still busy) hardware.
                trusted_device = SerialDevice(
                    self.sim, self.config.trusted_hardware.access_latency_us,
                    name=f"tc-device/{self.replica_names[replica_id]}")
                self._trusted_devices[replica_id] = trusted_device
            trusted = TrustedComponentHost(tc_key, self.config.trusted_hardware,
                                           trusted_device)
        state_machine = KeyValueStore(records=self.config.workload.records,
                                      value_size=VALUE_SIZE)
        ctx = ReplicaContext(
            sim=self.sim, network=self.network, keystore=self.keystore,
            protocol_config=self.protocol_config,
            f=self.f, n=self.n, replica_names=self.replica_names,
            state_machine=state_machine, safety=self.safety,
            trusted=trusted, trusted_device=trusted_device,
            one_way_latency_us=self._typical_one_way_latency(),
            store=self.stores[replica_id],
            tracer=self.tracer, trusted_usage=self.trusted_usage)
        if self.trusted_usage is not None:
            return GraftedPbftReplica(replica_id, ctx)
        return self.spec.replica_class(replica_id, ctx)

    def _typical_one_way_latency(self) -> Micros:
        """Median one-way latency from the initial primary to the other replicas."""
        if self.n <= 1:
            return INTRA_REGION_LATENCY_US
        latencies = sorted(
            self.topology.latency_us(self.replica_names[0], name)
            for name in self.replica_names[1:])
        return latencies[len(latencies) // 2]

    def default_target_requests(self) -> int:
        """Requests :meth:`run_until_target` waits for: warmup + measured batches."""
        return ((self.experiment.warmup_batches + self.experiment.measured_batches)
                * self.protocol_config.batch_size)

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Release backend resources and every internal reference cycle.

        Live deployments must be closed (or used as context managers) so
        pump/socket tasks and the loop are torn down.  On every backend a
        closed deployment is also *acyclic*: the kernel's queue is dropped,
        the transport detaches its nodes, and replicas and clients let go
        of their timers and queued jobs.  Results, ledgers, stores and
        statistics stay readable, but nothing can run any more, and the
        whole object graph is freed by reference counting the moment the
        caller lets go of it — runs defer the cyclic collector
        (:func:`~repro.kernel.collection_deferred`), so a finished
        deployment must not depend on it.
        """
        if self.backend.realtime:
            self.stop_clients()
        self.backend.teardown(self.sim, self.networks)
        self.close_nodes()

    def close_nodes(self) -> None:
        """Close every replica and client (a sharded parent closes groups)."""
        for node in (*self.replicas, *self.clients):
            node.close()

    def collect_result(self, warmup_fraction: float = 0.1) -> RunResult:
        """Snapshot metrics and substrate statistics into a :class:`RunResult`."""
        return self._result(
            self.metrics.summarise(warmup_fraction), [self.safety],
            per_replica_executed={r.replica_id: r.stats.batches_executed
                                  for r in self.replicas})

    # -------------------------------------------------------- fault injection
    def crash_replica(self, replica_id: int) -> None:
        """Crash a replica mid-run: it stops processing and sending."""
        self.replicas[replica_id].crash()

    def restart_replica(self, replica_id: int, recover: bool = True,
                        wipe_store: bool = False) -> BaseReplica:
        """Tear down and rebuild the replica on seat ``replica_id``.

        All protocol state (view, instances, reply caches) dies with the old
        incarnation.  What the new one inherits models the hardware:

        * the **durable store** always survives (unless ``wipe_store`` models
          a host discarding its disk),
        * the **trusted component's state** survives only on persistent
          hardware; a volatile component restarts empty, so its counters
          reset — the Section 6 rollback exposure, now reachable through an
          ordinary restart,
        * the **trusted device** (its timing) is the same physical resource.

        With ``recover=True`` the new incarnation replays its local store and
        runs the peer state-transfer protocol before rejoining consensus.
        """
        old = self.replicas[replica_id]
        if old.active:
            old.crash()
        store = self.stores[replica_id]
        if wipe_store:
            store.wipe()
        trusted_override = None
        if old.trusted is not None and self.config.trusted_hardware.persistent:
            trusted_override = old.trusted
        replica = self._build_replica(replica_id,
                                      trusted_override=trusted_override)
        self.replicas[replica_id] = replica
        self.network.register(replica)
        tracer = self.tracer
        if tracer is not None:
            tracer.record("replica.restart", node=replica.name)
        if recover:
            delay = store.replay_cost_us()
            if delay > 0:
                self.sim.schedule(delay, replica.begin_recovery)
            else:
                replica.begin_recovery()
        return replica

    # ----------------------------------------------------------- inspection
    @property
    def networks(self) -> list[Network]:
        """This deployment's one transport, as a list (the sharded shape)."""
        return [self.network]

    @property
    def primary(self) -> BaseReplica:
        """The replica leading view 0."""
        return self.replicas[0]

    def replica(self, replica_id: int) -> BaseReplica:
        """Replica by identifier."""
        return self.replicas[replica_id]

    def honest_replicas(self) -> list[BaseReplica]:
        """Replicas the safety monitor treats as honest."""
        return [r for r in self.replicas
                if r.replica_id in self.safety.honest_replicas]

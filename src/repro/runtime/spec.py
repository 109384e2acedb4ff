"""One declarative build path for every deployment shape and backend.

A :class:`DeploymentSpec` names everything that used to be encoded in *which
class you instantiated*: the deployment configuration, whether the keyspace
is sharded, which fault schedule (if any) drives crashes and restarts, and
which execution backend (``sim`` / ``live`` / ``live-tcp``) supplies the
kernel and transport.  ``spec.build()`` then constructs the right deployment
— plain, sharded, or fault-scheduled — on the right kernel/transport pair,
so experiments, the CLI and the perf scenarios all share a single
construction seam instead of picking a stack by class name::

    DeploymentSpec(config).build()                          # simulated
    DeploymentSpec(config, backend="live").build()          # asyncio queues
    DeploymentSpec(config, backend="live-tcp",
                   num_shards=4).build()                    # sharded on TCP
    DeploymentSpec(config, fault_schedule=schedule,
                   backend="live").build()                  # live recovery

A built deployment is a context manager, and that is the one way a point is
run — leaving the block closes it, which releases the backend's resources
and every internal reference cycle::

    with DeploymentSpec(config).build() as deployment:
        result = deployment.run_until_target()
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Union

from ..backends import Backend, resolve_backend
from ..common.config import DeploymentConfig
from ..common.errors import ConfigurationError
from ..common.jsonhash import json_digest
from ..obsv.health import ObservabilityConfig
from ..protocols.family import TrustedUsage
from ..protocols.registry import get_protocol
from ..recovery.schedule import FaultEvent, FaultSchedule
from ..workload.openloop import OpenLoopConfig
from .deployment import Deployment

if TYPE_CHECKING:
    from ..sharding.deployment import ShardedDeployment

#: hex characters of a cell hash (64 bits of the SHA-256 digest): short
#: enough for file names and table columns, long enough that two distinct
#: cells colliding inside one matrix is effectively impossible (and the
#: matrix expander refuses duplicate hashes outright).
CELL_HASH_HEX = 16


def _describe_fault_event(event: FaultEvent) -> dict:
    """Plain-data form of one fault event for canonical hashing.

    Fields at their defaults are omitted so a hash recorded before a new
    (defaulted) ``FaultEvent`` field existed stays valid after it is added.
    """
    description: dict = {"kind": event.kind.value, "at_us": event.at_us}
    if event.replica is not None:
        description["replica"] = event.replica
    if event.replicas:
        description["replicas"] = tuple(sorted(event.replicas))
    if event.name:
        description["name"] = event.name
    return description


def _describe_schedule(schedule: FaultSchedule) -> tuple[dict, ...]:
    return tuple(_describe_fault_event(event) for event in schedule.events)


@dataclass(frozen=True)
class DeploymentSpec:
    """Everything needed to build one deployment, on any backend."""

    #: the per-group deployment configuration (protocol, f, workload, ...).
    config: DeploymentConfig
    #: execution backend: ``sim`` (default), ``live``, ``live-tcp``, or a
    #: :class:`~repro.backends.Backend` instance.
    backend: Union[str, Backend] = "sim"
    #: when set, build a sharded deployment with this many consensus groups
    #: (``config`` becomes the per-group base configuration).
    num_shards: Optional[int] = None
    #: cross-shard client count for sharded builds (defaults to
    #: ``config.workload.num_clients``); a plain spec refuses it.
    num_clients: Optional[int] = None
    #: seed mixed into the shard router's key hash (sharded builds only).
    router_seed: int = 0
    #: timed crash/restart/partition events for a plain deployment.
    fault_schedule: Optional[FaultSchedule] = None
    #: per-group fault schedules for a sharded deployment (shard -> schedule).
    fault_schedules: dict[int, FaultSchedule] = field(default_factory=dict)
    #: what the deployment observes about itself (tracing, health sampling,
    #: stall threshold); ``None`` keeps everything off — the zero-overhead
    #: default whose simulated digests match pre-observability builds.
    observe: Optional[ObservabilityConfig] = None
    #: when set, the deployment is driven by the open-loop arrival engine
    #: instead of the clients' closed loops: ``config.workload.num_clients``
    #: (or the sharded ``num_clients``) must equal ``open_loop.max_in_flight``
    #: — the clients become the engine's request lanes.
    open_loop: Optional[OpenLoopConfig] = None
    #: when set, one of Figure 5's bars: the trusted use grafted onto a
    #: plain (unsharded) Pbft deployment.
    trusted_usage: Optional[TrustedUsage] = None

    @property
    def sharded(self) -> bool:
        """Whether :meth:`build` constructs a multi-group deployment."""
        return self.num_shards is not None

    def validate(self) -> None:
        """Reject what no build path accepts, or what a build would ignore."""
        clients = (self.config.workload.num_clients if self.num_clients is None
                   else self.num_clients)
        if self.sharded:
            if self.num_shards <= 0:
                raise ConfigurationError(
                    "a sharded deployment needs at least one shard")
            if clients <= 0:
                raise ConfigurationError("need at least one cross-shard client")
            if self.fault_schedule is not None:
                raise ConfigurationError(
                    "a sharded deployment takes per-group fault_schedules "
                    "(shard -> FaultSchedule), not a single fault_schedule")
            unknown = sorted(shard for shard in self.fault_schedules
                             if not 0 <= shard < self.num_shards)
            if unknown:
                raise ConfigurationError(
                    f"fault schedules address shards {unknown}, but the "
                    f"deployment only has shards 0..{self.num_shards - 1}")
        elif self.num_clients is not None or self.router_seed:
            raise ConfigurationError(
                "num_clients and router_seed configure a sharded deployment; "
                "set num_shards, or size a plain one with "
                "config.workload.num_clients")
        elif self.fault_schedules:
            raise ConfigurationError(
                "fault_schedules address shards; a plain deployment takes "
                "a single fault_schedule")
        if self.open_loop is not None:
            self.open_loop.validate()
            if clients != self.open_loop.max_in_flight:
                raise ConfigurationError(
                    f"open-loop spec wants max_in_flight="
                    f"{self.open_loop.max_in_flight} lanes but builds "
                    f"{clients} clients; set workload.num_clients (or the "
                    "sharded num_clients) to max_in_flight")
        if self.trusted_usage is not None:
            if get_protocol(self.config.protocol).name != "pbft":
                raise ConfigurationError(
                    "trusted_usage grafts trusted use onto pbft, not "
                    f"{self.config.protocol}")
            if self.sharded:
                raise ConfigurationError(
                    "trusted_usage configures a plain deployment; a sharded "
                    "one would drop it")

    def describe(self) -> dict:
        """Canonical plain-data description of everything the spec resolves.

        This is the hashing surface of the experiment-matrix engine: two
        specs describe identically exactly when they would build and run the
        same deployment.  Three rules keep the resulting hashes stable and
        meaningful:

        * **Backends hash by name.**  A ``Backend`` instance and the string
          that resolves to it describe identically.
        * **Fields at their neutral default are omitted** (no shards, no
          fault schedule), so a hash
          recorded before a defaulted field existed stays valid after it is
          added — and passing a default explicitly never changes a hash.
        * **Observability is excluded.**  Tracing and health sampling observe
          a run without changing its results (the ``obsv_overhead`` scenario
          pins this), so toggling them must not invalidate resumable cell
          results.
        """
        backend = resolve_backend(self.backend)
        description: dict = {"config": self.config, "backend": backend.name}
        if self.num_shards is not None:
            description["num_shards"] = self.num_shards
            description["router_seed"] = self.router_seed
            if self.num_clients is not None:
                description["num_clients"] = self.num_clients
        if self.fault_schedule is not None:
            description["fault_schedule"] = _describe_schedule(self.fault_schedule)
        if self.fault_schedules:
            description["fault_schedules"] = {
                shard: _describe_schedule(schedule)
                for shard, schedule in self.fault_schedules.items()}
        if self.open_loop is not None:
            description["open_loop"] = self.open_loop
        if self.trusted_usage is not None:
            description["trusted_usage"] = self.trusted_usage
        return description

    def cell_hash(self) -> str:
        """Stable content hash of the fully-resolved spec.

        The hex prefix (:data:`CELL_HASH_HEX` characters) of the SHA-256
        of :meth:`describe`'s sorted-key JSON
        (:func:`~repro.common.jsonhash.json_digest`: a dataclass hashes as
        ``{"__class__": name, ...fields}``), the hash the determinism
        digests use too, and independent of the wire codec.  A
        :class:`~repro.matrix.cell.Cell` hashes as its spec does, so a cell,
        its result file ``results/<hash>.json`` and a hand-built spec all
        name the same identity.
        """
        return json_digest(self.describe())[:CELL_HASH_HEX]

    def build(self) -> Union[Deployment, "ShardedDeployment"]:
        """Construct the deployment this spec describes."""
        if self.sharded:
            # Imported lazily: repro.sharding builds on repro.runtime.
            from ..sharding.deployment import ShardedDeployment

            return ShardedDeployment(self)
        self.validate()
        return Deployment(self.config, fault_schedule=self.fault_schedule,
                          backend=resolve_backend(self.backend),
                          observe=self.observe,
                          trusted_usage=self.trusted_usage)

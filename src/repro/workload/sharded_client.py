"""Cross-shard closed-loop client.

A :class:`ShardedClient` drives a sharded deployment the way a
:class:`~repro.workload.client.Client` drives a single group: it keeps one
*logical* request outstanding at a time.  Each logical request's operations
are partitioned by the shard router; the client submits one sub-request per
owning group (through a per-shard :class:`Client` lane that reuses all the
quorum, slow-path and resend machinery) and completes — merging the per-shard
responses — once every involved group has answered.

Sub-requests are reported to the serving group's own metrics, the merged
logical request to the global sink, so a sharded run exposes both per-shard
and roll-up throughput/latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Optional, Sequence

from ..common.config import WorkloadConfig
from ..common.errors import ConfigurationError, SimulationError
from ..common.types import Micros, RequestId
from ..crypto.keystore import KeyStore
from ..kernel import Kernel
from .client import Client, CompletionSink
from .ycsb import YcsbWorkload

if TYPE_CHECKING:  # imported lazily to keep workload free of sharding imports
    from ..runtime.deployment import Deployment
    from ..sharding.router import ShardRouter


@dataclass
class ShardedClientStats:
    """Per-client counters over logical (cross-shard) requests."""

    submitted: int = 0
    completed: int = 0
    sub_requests: int = 0
    #: logical requests whose operations spanned more than one shard.
    multi_shard_requests: int = 0


class ShardedClient:
    """One closed-loop client whose requests span a sharded deployment.

    The client (and every per-shard lane underneath it) schedules purely
    through the :class:`~repro.kernel.Kernel` surface — issue delays here,
    retry/timeout timers inside the lanes — so the same coordinator runs
    unchanged on the simulator and on the live backends.
    """

    def __init__(self, name: str, sim: Kernel, keystore: KeyStore,
                 workload: Optional[YcsbWorkload],
                 workload_config: WorkloadConfig,
                 router: "ShardRouter", groups: Sequence["Deployment"],
                 global_sink: Optional[CompletionSink] = None) -> None:
        self.name = name
        self.sim = sim
        self.workload = workload
        self.workload_config = workload_config
        self.router = router
        self.stats = ShardedClientStats()
        self.active = True
        #: when set, an external coordinator (e.g. the open-loop engine)
        #: drives this client through :meth:`submit`: logical completions
        #: are reported through the callback instead of immediately issuing
        #: the next workload request.
        self.on_complete = None
        self._global_sink = global_sink
        self._logical_number = 0
        self._outstanding: set[int] = set()
        self._submitted_at: Micros = 0.0
        self._op_count = 0

        # One lane per shard: a regular client registered on that group's
        # network, driven by this coordinator instead of its own workload.
        self.lanes: list[Client] = []
        for shard, group in enumerate(groups):
            lane = Client(
                name=name, sim=sim, network=group.network, keystore=keystore,
                workload=None, workload_config=workload_config,
                replica_names=group.replica_names,
                reply_policy=group.spec.reply_policy(group.n, group.f),
                sink=group.metrics,
                request_timeout_us=group.protocol_config.request_timeout_us,
                on_complete=partial(self._on_lane_complete, shard),
                tracer=group.tracer)
            group.network.register(lane)
            self.lanes.append(lane)

    # ------------------------------------------------------------ lifecycle
    def start(self, initial_delay_us: Micros = 0.0) -> None:
        """Begin the closed loop after ``initial_delay_us``."""
        if self.workload is None:
            raise ConfigurationError(
                f"client {self.name!r} has no workload: it is driven by an "
                "external coordinator via submit(), not start()")
        self.sim.schedule(initial_delay_us, self._issue_next)

    def stop(self) -> None:
        """Stop issuing logical requests; an outstanding one is abandoned.

        The logical abandonment is reported to the global sink (and each
        involved lane reports its sub-request to its group's metrics), so a
        cross-shard request dropped at shutdown is distinguishable from one
        still in flight when the run ended.
        """
        self.active = False
        self.abandon_pending(reason="stopped")
        for lane in self.lanes:
            lane.stop()

    def close(self) -> None:
        """The deployment is torn down: untie the lanes and the coordinator."""
        self.on_complete = None
        for lane in self.lanes:
            lane.close()

    def abandon_pending(self, reason: str = "abandoned") -> Optional[RequestId]:
        """Drop the outstanding logical request and report the abandonment.

        Abandons the sub-request on every shard still owing a response and
        frees the client to accept a new :meth:`submit` immediately — the
        open-loop engine uses this to enforce per-request deadlines.
        Returns the logical request id, or None if nothing was outstanding.
        """
        if not self._outstanding:
            return None
        request_id = self._logical_request_id()
        for shard in sorted(self._outstanding):
            self.lanes[shard].abandon_pending(reason=reason)
        self._outstanding = set()
        if self._global_sink is not None:
            record = getattr(self._global_sink, "record_abandonment", None)
            if record is not None:
                record(self.name, request_id, self._submitted_at,
                       self.sim.now, self._op_count, reason)
        return request_id

    # -------------------------------------------------------------- issuing
    def _issue_next(self) -> None:
        if not self.active:
            return
        operations = tuple(self.workload.next_operations(
            self.workload_config.requests_per_client_message))
        self.submit(operations)

    def submit(self, operations: tuple) -> RequestId:
        """Partition one logical request over the owning groups and send it."""
        if self._outstanding:
            raise SimulationError(
                f"client {self.name!r} already has logical request "
                f"{self._logical_request_id()} outstanding on shards "
                f"{sorted(self._outstanding)}: one logical request at a time")
        by_shard = self.router.partition(operations)
        self._logical_number += 1
        self._outstanding = set(by_shard)
        self._submitted_at = self.sim.now
        self._op_count = len(operations)
        self.stats.submitted += 1
        self.stats.sub_requests += len(by_shard)
        if len(by_shard) > 1:
            self.stats.multi_shard_requests += 1
        if self._global_sink is not None:
            self._global_sink.record_submission(
                self.name, self._logical_request_id(), self.sim.now,
                len(operations))
        for shard in sorted(by_shard):
            self.lanes[shard].submit(tuple(by_shard[shard]))
        return self._logical_request_id()

    def _logical_request_id(self) -> RequestId:
        return RequestId(client=self.name, number=self._logical_number)

    # ------------------------------------------------------------- merging
    def _on_lane_complete(self, shard: int) -> None:
        if shard not in self._outstanding:
            return
        self._outstanding.discard(shard)
        if self._outstanding:
            return
        # Every involved shard has answered: the logical request is complete.
        self.stats.completed += 1
        if self._global_sink is not None:
            self._global_sink.record_completion(
                self.name, self._logical_request_id(), self._submitted_at,
                self.sim.now, self._op_count)
        if self.on_complete is not None:
            self.on_complete()
        else:
            self._issue_next()

    # ----------------------------------------------------------- inspection
    @property
    def outstanding_shards(self) -> frozenset[int]:
        """Shards still owing a sub-response for the current logical request."""
        return frozenset(self._outstanding)

    def resends(self) -> int:
        """Total sub-request resends across every lane."""
        return sum(lane.stats.resends for lane in self.lanes)

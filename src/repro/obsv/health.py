"""Per-replica and per-deployment health surfaces.

:meth:`~repro.protocols.base.BaseReplica.health` snapshots one replica's
runtime state — queue depths, view, last-executed sequence, checkpoint lag,
trusted-counter value, verify-cache hit rate (of the key store, which a
sharded deployment shares across its groups) — into a :class:`ReplicaHealth`.
A plain or sharded deployment folds the snapshot of every replica in
``deployment.replicas`` plus kernel state into a :class:`DeploymentHealth`,
whose :meth:`~DeploymentHealth.aggregate` columns ride into
``RunResult.as_row()`` when health collection is enabled (and stay entirely
out of the row schema — and hence the perf harness's determinism digests —
when it is not).

The same snapshots feed the stall watchdog's diagnostics bundle, so "what
was replica 3 doing when the run wedged" has one answer everywhere.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:
    from ..kernel import EventHandle, Kernel


@dataclass(frozen=True)
class ObservabilityConfig:
    """What a deployment observes about itself while it runs."""

    #: record structured trace events into a bounded ring buffer.
    trace: bool = False
    #: ring capacity when tracing (events beyond it evict the oldest).
    trace_capacity: int = 65_536
    #: snapshot aggregated health into the run's metrics row.
    collect_health: bool = False
    #: sample aggregated health every this many kernel microseconds during
    #: ``run_until_target`` (None: no periodic sampling).
    health_interval_us: Optional[float] = None
    #: live backends only: declare a stall after this many microseconds of
    #: wall-clock with zero newly completed requests (None: a default derived
    #: from the run's wall-clock cap).
    stall_after_us: Optional[float] = None


@dataclass(frozen=True)
class ReplicaHealth:
    """One replica's runtime state, snapshotted without side effects."""

    name: str
    replica_id: int
    protocol: str
    active: bool
    recovering: bool
    is_primary: bool
    in_view_change: bool
    view: int
    last_executed: int
    stable_checkpoint: int
    checkpoint_lag: int
    next_seq: int
    pending_requests: int
    executable: int
    instances: int
    in_flight: int
    worker_queue: int
    busy_workers: int
    messages_processed: int
    batches_executed: int
    view_changes_started: int
    checkpoints_taken: int
    trusted_counter: int
    trusted_accesses: int
    verify_hit_rate: float

    def as_dict(self) -> dict:
        """JSON-serialisable form (diagnostics bundles, ``repro diag``)."""
        return asdict(self)


@dataclass(frozen=True)
class DeploymentHealth:
    """Kernel state plus every replica's health at one instant."""

    kernel_now_us: float
    events_processed: int
    pending_events: int
    completed_requests: int
    replicas: tuple[ReplicaHealth, ...]

    def aggregate(self) -> dict:
        """Flat deployment-wide columns folded into the metrics row."""
        replicas = self.replicas
        if not replicas:
            return {"replicas": 0}
        return {
            "replicas": len(replicas),
            "active": sum(1 for r in replicas if r.active),
            "recovering": sum(1 for r in replicas if r.recovering),
            "max_view": max(r.view for r in replicas),
            "min_last_executed": min(r.last_executed for r in replicas),
            "max_checkpoint_lag": max(r.checkpoint_lag for r in replicas),
            "queued_jobs": sum(r.worker_queue for r in replicas),
            "pending_requests": sum(r.pending_requests for r in replicas),
            "verify_hit_rate": max(r.verify_hit_rate for r in replicas),
        }

    def as_dict(self) -> dict:
        """JSON-serialisable form (diagnostics bundles)."""
        return {
            "kernel_now_us": self.kernel_now_us,
            "events_processed": self.events_processed,
            "pending_events": self.pending_events,
            "completed_requests": self.completed_requests,
            "replicas": [r.as_dict() for r in self.replicas],
        }


class HealthSampler:
    """Periodic health snapshots on the deployment's own kernel.

    ``repro live --health-interval S`` arms one around the run: every
    interval it appends ``snapshot().aggregate()`` (plus a timestamp) to a
    bounded sample list, so a run's health history is inspectable afterwards
    without any polling thread.
    """

    def __init__(self, kernel: "Kernel",
                 snapshot: Callable[[], DeploymentHealth],
                 interval_us: float, capacity: int = 1024) -> None:
        self._kernel = kernel
        self._snapshot = snapshot
        self._interval_us = interval_us
        self._handle: Optional["EventHandle"] = None
        self.samples: deque[dict] = deque(maxlen=capacity)

    def start(self) -> None:
        """Take the first sample one interval from now."""
        if self._handle is None:
            self._handle = self._kernel.schedule(self._interval_us,
                                                 partial(self._tick))

    def stop(self) -> None:
        """Stop sampling (retained samples stay readable)."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _tick(self) -> None:
        health = self._snapshot()
        sample = {"time_us": round(health.kernel_now_us, 1)}
        sample.update(health.aggregate())
        self.samples.append(sample)
        self._handle = self._kernel.schedule(self._interval_us,
                                             partial(self._tick))

"""Crash-recovery subsystem: durable stores, fault schedules, state transfer.

The paper's central safety argument (Section 6) hinges on what survives a
replica restart — volatile SGX counters enable rollback, persistent ones do
not — so the interesting trusted-component behaviour lives exactly at restart
boundaries.  This package supplies everything the rest of the library needs to
exercise those boundaries:

* :mod:`repro.recovery.store` — a durable per-replica store: a write-ahead log
  of decided batches plus stable-checkpoint snapshots, with a configurable
  fsync latency charged to the simulated clock through a disk
  :class:`~repro.sim.resources.SerialDevice`.
* :mod:`repro.recovery.schedule` — a :class:`FaultSchedule` of timed events
  (``crash``, ``restart``, ``partition``, ``heal``) that generalises the
  static ``FaultConfig.crashed`` tuple and is driven by simulator timers.
* :mod:`repro.recovery.transfer` — bookkeeping for the peer state-transfer
  protocol (``CheckpointRequest`` / ``CheckpointReply`` / ``LogFill``) whose
  handlers live in :mod:`repro.protocols.base`.
* :mod:`repro.recovery.analysis` — the columns a fault-timeline cell reports:
  dip depth and time-to-recover of a crash/restart, and each replica's state.

Restart semantics for the trusted layer are implemented by
:meth:`repro.runtime.deployment.Deployment.restart_replica`: a volatile
component comes back empty (recreating the paper's rollback exposure) while a
persistent one resumes where it stopped.
"""

from .analysis import RecoverySummary, recovery_summary, windowed_throughput
from .schedule import (
    FaultEvent,
    FaultEventKind,
    FaultPlan,
    FaultSchedule,
    crash_at,
    heal_at,
    partition_at,
    restart_at,
)
from .store import DurableStore, DurableStoreStats, StoredCheckpoint, WalRecord
from .transfer import StateTransferSession

__all__ = [
    "DurableStore",
    "DurableStoreStats",
    "FaultEvent",
    "FaultEventKind",
    "FaultPlan",
    "FaultSchedule",
    "RecoverySummary",
    "StateTransferSession",
    "StoredCheckpoint",
    "WalRecord",
    "crash_at",
    "heal_at",
    "partition_at",
    "recovery_summary",
    "restart_at",
    "windowed_throughput",
]

"""Fault-timeline analysis: throughput dips, time-to-recover, end state.

:func:`timeline_columns` is the one definition of what a cell with a fault
schedule reports.  Around a crash → restart it wants two numbers the
steady-state :class:`~repro.runtime.metrics.RunMetrics` cannot provide: how
deep throughput dips while the replica is down, and how long after the
restart the deployment takes to climb back to its pre-crash rate.  Both come
from one primitive — completion timestamps bucketed into fixed windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

from ..common.types import MICROS_PER_SECOND, Micros
from .schedule import FaultEventKind, FaultSchedule

if TYPE_CHECKING:  # protocols.base imports this package; keep runtime out
    from ..runtime.deployment import Deployment
    from ..runtime.metrics import CompletionRecord


def windowed_throughput(completions: "Iterable[CompletionRecord]",
                        bucket_us: Micros,
                        until_us: Optional[Micros] = None) -> list[float]:
    """Completed transactions per second, bucketed into fixed windows.

    Bucket ``i`` covers ``[i * bucket_us, (i + 1) * bucket_us)``; the result
    extends to ``until_us`` (or the last completion) so trailing silence shows
    up as zero-throughput buckets rather than being truncated away.
    """
    if bucket_us <= 0:
        raise ValueError("bucket width must be positive")
    records = list(completions)
    horizon = max([until_us or 0.0] + [r.completed_at for r in records])
    buckets = [0] * (int(horizon // bucket_us) + 1)
    for record in records:
        buckets[int(record.completed_at // bucket_us)] += 1
    scale = MICROS_PER_SECOND / bucket_us
    return [count * scale for count in buckets]


@dataclass(frozen=True)
class RecoverySummary:
    """Shape of one crash → restart → rejoin timeline."""

    pre_crash_tx_s: float
    dip_tx_s: float
    post_recovery_tx_s: float
    #: simulated seconds from the restart until windowed throughput first
    #: climbs back above ``recovered_fraction`` of the pre-crash rate
    #: (``None`` when it never does within the run).
    time_to_recover_s: Optional[float]
    recovered_fraction: float

    @property
    def dip_fraction(self) -> float:
        """Dip depth relative to the pre-crash rate (0 = no dip, 1 = stall)."""
        if self.pre_crash_tx_s <= 0:
            return 0.0
        return max(0.0, 1.0 - self.dip_tx_s / self.pre_crash_tx_s)

    @property
    def recovered(self) -> bool:
        """Whether throughput climbed back within the run."""
        return self.time_to_recover_s is not None

    def as_row(self) -> dict:
        """Flat columns merged into the experiment tables."""
        return {
            "pre_crash_tx_s": round(self.pre_crash_tx_s, 1),
            "dip_tx_s": round(self.dip_tx_s, 1),
            "dip_fraction": round(self.dip_fraction, 3),
            "post_recovery_tx_s": round(self.post_recovery_tx_s, 1),
            "time_to_recover_s": (None if self.time_to_recover_s is None
                                  else round(self.time_to_recover_s, 3)),
        }


def recovery_summary(completions: "Iterable[CompletionRecord]",
                     crash_us: Micros, restart_us: Micros,
                     end_us: Micros, bucket_us: Micros = 100_000.0,
                     recovered_fraction: float = 0.9,
                     warmup_us: Micros = 0.0) -> RecoverySummary:
    """Measure dip depth and time-to-recover around a crash/restart pair.

    The pre-crash rate averages the buckets between ``warmup_us`` and the
    crash; the dip is the lowest bucket between the crash and recovery; the
    recovery point is the first bucket at or after the restart whose rate
    reaches ``recovered_fraction`` of the pre-crash rate.
    """
    if not warmup_us < crash_us < restart_us <= end_us:
        raise ValueError("expected warmup < crash < restart <= end")
    buckets = windowed_throughput(completions, bucket_us, until_us=end_us)

    def bucket_range(start: Micros, stop: Micros) -> list[float]:
        lo = int(start // bucket_us)
        hi = max(lo + 1, int(stop // bucket_us))
        return buckets[lo:hi]

    pre = bucket_range(warmup_us, crash_us)
    pre_rate = sum(pre) / len(pre) if pre else 0.0

    recover_index: Optional[int] = None
    threshold = recovered_fraction * pre_rate
    for index in range(int(restart_us // bucket_us), len(buckets)):
        if buckets[index] >= threshold:
            recover_index = index
            break

    dip_stop = (restart_us if recover_index is None
                else min(end_us, (recover_index + 1) * bucket_us))
    dip = bucket_range(crash_us, max(dip_stop, crash_us + bucket_us))
    post_start = (restart_us if recover_index is None
                  else recover_index * bucket_us)
    # Drop the final bucket: the run usually stops mid-bucket, which would
    # read as an artificial throughput collapse.
    post = bucket_range(post_start, end_us)[:-1] or bucket_range(post_start, end_us)

    return RecoverySummary(
        pre_crash_tx_s=pre_rate,
        dip_tx_s=min(dip) if dip else 0.0,
        post_recovery_tx_s=sum(post) / len(post) if post else 0.0,
        time_to_recover_s=(None if recover_index is None else
                           max(0.0, recover_index * bucket_us - restart_us)
                           / MICROS_PER_SECOND),
        recovered_fraction=recovered_fraction,
    )


def timeline_columns(deployment: "Deployment", schedule: FaultSchedule,
                     end_us: Micros) -> dict:
    """The columns a fault timeline reports about its finished deployment.

    Around the schedule's first crash and first restart, if it has both:
    the :class:`RecoverySummary` up to ``end_us`` (warm-up: a quarter of the
    time to the crash), whether the restarted seat recovered and how many
    batches it state-transferred.  Always: every replica's view, execution
    frontier and trusted accesses.
    """
    columns: dict = {}
    first = {event.kind: event for event in reversed(schedule.events)}  # earliest wins
    restart = first.get(FaultEventKind.RESTART)
    if restart is not None:  # a valid schedule crashes before it restarts
        crash_us = first[FaultEventKind.CRASH].at_us
        columns.update(recovery_summary(
            deployment.metrics.completions, crash_us, restart.at_us, end_us,
            warmup_us=0.25 * crash_us).as_row())
        stats = deployment.replica(restart.replica).stats
        columns["recovered"] = stats.recoveries_completed > 0
        columns["transfer_batches"] = stats.log_fill_batches_applied
    for health in deployment.health().replicas:
        prefix = f"r{health.replica_id}_"
        columns[prefix + "view"] = health.view
        columns[prefix + "last_executed"] = health.last_executed
        columns[prefix + "trusted_accesses"] = health.trusted_accesses
    return columns

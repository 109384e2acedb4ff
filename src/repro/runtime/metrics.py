"""Throughput and latency measurement.

Clients report every submission and completion to a :class:`MetricsCollector`.
Experiments then ask for a :class:`RunMetrics` summary computed over a
measurement window that excludes warmup: the paper reports averages over a
180-second run with 60 seconds of warmup/cooldown trimmed (Section 9.2); the
simulator works in completed-transaction counts instead, trimming the first
``warmup_fraction`` of completions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..common.types import MICROS_PER_SECOND, Micros, RequestId
from ..crypto.digest import stores_fields


@stores_fields
@dataclass(frozen=True, slots=True)
class CompletionRecord:
    """One completed client request."""

    client: str
    request_id: RequestId
    submitted_at: Micros
    completed_at: Micros
    operations: int

    @property
    def latency_us(self) -> Micros:
        """Client-observed latency of the request."""
        return self.completed_at - self.submitted_at


@dataclass(frozen=True, slots=True)
class AbandonmentRecord:
    """A request given up on before any reply quorum arrived.

    Open-loop and overload runs need to distinguish "dropped at deadline /
    shutdown" from "still in flight at the end of the run"; completions
    alone cannot tell the two apart.
    """

    client: str
    request_id: RequestId
    submitted_at: Micros
    abandoned_at: Micros
    operations: int
    reason: str


@dataclass
class MetricsCollector:
    """Accumulates client-side submission and completion events."""

    submissions: int = 0
    completions: list[CompletionRecord] = field(default_factory=list)
    abandonments: list[AbandonmentRecord] = field(default_factory=list)
    #: completion count at which ``_on_target`` runs (see :meth:`notify_at`).
    _target: Optional[int] = field(default=None, init=False, repr=False,
                                   compare=False)
    _on_target: Optional[Callable[[], None]] = field(
        default=None, init=False, repr=False, compare=False)

    # ------------------------------------------------------- sink interface
    def record_submission(self, client: str, request_id: RequestId,
                          submitted_at: Micros, operations: int) -> None:
        self.submissions += 1

    def record_completion(self, client: str, request_id: RequestId,
                          submitted_at: Micros, completed_at: Micros,
                          operations: int) -> None:
        completions = self.completions
        completions.append(CompletionRecord(
            client, request_id, submitted_at, completed_at, operations))
        if len(completions) == self._target:
            self._on_target()

    def record_abandonment(self, client: str, request_id: RequestId,
                           submitted_at: Micros, abandoned_at: Micros,
                           operations: int, reason: str = "stopped") -> None:
        self.abandonments.append(AbandonmentRecord(
            client=client, request_id=request_id, submitted_at=submitted_at,
            abandoned_at=abandoned_at, operations=operations, reason=reason))

    def notify_at(self, target: Optional[int],
                  callback: Optional[Callable[[], None]] = None) -> None:
        """Call ``callback`` once, when the completed count reaches ``target``.

        At once if it already has; ``notify_at(None)`` disarms.  This is how
        a run learns its target completed without asking after every event.
        """
        self._target, self._on_target = target, callback
        if target is not None and len(self.completions) >= target:
            callback()

    # ----------------------------------------------------------- inspection
    @property
    def completed_count(self) -> int:
        """Number of completed requests so far."""
        return len(self.completions)

    @property
    def abandoned_count(self) -> int:
        """Number of requests abandoned before completion."""
        return len(self.abandonments)

    def in_flight(self) -> int:
        """Submitted requests neither completed nor abandoned yet."""
        return self.submissions - len(self.completions) - len(self.abandonments)

    # -------------------------------------------------------------- summary
    def summarise(self, warmup_fraction: float = 0.1) -> "RunMetrics":
        """Compute throughput/latency over the post-warmup window."""
        records = sorted(self.completions, key=lambda r: r.completed_at)
        if not records:
            return RunMetrics()
        skip = int(len(records) * warmup_fraction)
        kept = records[skip:] if skip < len(records) else records
        window_start = kept[0].submitted_at
        window_end = kept[-1].completed_at
        duration_us = max(window_end - window_start, 1.0)
        operations = sum(record.operations for record in kept)
        latencies = sorted(record.latency_us for record in kept)
        return RunMetrics(
            completed_requests=len(kept),
            completed_operations=operations,
            duration_s=duration_us / MICROS_PER_SECOND,
            throughput_tx_s=operations * MICROS_PER_SECOND / duration_us,
            mean_latency_ms=sum(latencies) / len(latencies) / 1_000.0,
            p50_latency_ms=_percentile(latencies, 0.5) / 1_000.0,
            p99_latency_ms=_percentile(latencies, 0.99) / 1_000.0,
        )


@dataclass(frozen=True)
class RunMetrics:
    """Summary of one run: throughput plus latency distribution."""

    completed_requests: int = 0
    completed_operations: int = 0
    duration_s: float = 0.0
    throughput_tx_s: float = 0.0
    mean_latency_ms: float = 0.0
    p50_latency_ms: float = 0.0
    p99_latency_ms: float = 0.0
    #: end-of-run aggregated deployment health
    #: (:meth:`~repro.obsv.health.DeploymentHealth.aggregate`); populated
    #: only when the deployment collects health, so the default row schema —
    #: and every committed determinism digest over it — is unchanged.
    health: Optional[dict] = None

    def as_row(self) -> dict:
        """Flat dictionary form used by the benchmark harness tables."""
        row = {
            "throughput_tx_s": round(self.throughput_tx_s, 1),
            "mean_latency_ms": round(self.mean_latency_ms, 3),
            "p50_latency_ms": round(self.p50_latency_ms, 3),
            "p99_latency_ms": round(self.p99_latency_ms, 3),
            "completed_requests": self.completed_requests,
        }
        if self.health is not None:
            for key, value in self.health.items():
                row[f"health_{key}"] = value
        return row


def _percentile(sorted_values: list[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(round(fraction * (len(sorted_values) - 1))))
    return sorted_values[index]

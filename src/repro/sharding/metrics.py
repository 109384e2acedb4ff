"""Measurement summary of a sharded run.

Each cross-shard client reports twice: every *sub-request* lands in the
metrics of the group that served it (each group's own
:attr:`Deployment.metrics <repro.runtime.deployment.Deployment.metrics>`),
and every *logical* request (all of its sub-requests merged) lands in the
sharded deployment's ``metrics``.  The summary exposes both views — per-shard
throughput/latency for imbalance analysis and a global roll-up comparable to
single-group runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..runtime.metrics import MetricsCollector, RunMetrics


@dataclass(frozen=True)
class ShardedRunMetrics:
    """Global and per-shard measurement summary of one sharded run."""

    global_metrics: RunMetrics
    shard_metrics: tuple[RunMetrics, ...]
    #: hottest shard's completed operations divided by the per-shard mean;
    #: 1.0 is a perfectly balanced partition.
    imbalance: float
    #: end-of-run aggregated health across every group's replicas; populated
    #: only when the deployment collects health (same schema-stability rule
    #: as :attr:`~repro.runtime.metrics.RunMetrics.health`).
    health: dict | None = None

    @classmethod
    def summarise(cls, logical: MetricsCollector,
                  shards: Sequence[MetricsCollector],
                  warmup_fraction: float = 0.1) -> "ShardedRunMetrics":
        """Summaries of the logical requests and of every shard, plus imbalance."""
        shard_metrics = tuple(collector.summarise(warmup_fraction)
                              for collector in shards)
        operations = [m.completed_operations for m in shard_metrics]
        mean_ops = sum(operations) / max(1, len(operations))
        return cls(
            global_metrics=logical.summarise(warmup_fraction),
            shard_metrics=shard_metrics,
            imbalance=max(operations) / mean_ops if mean_ops > 0 else 0.0)

    @property
    def num_shards(self) -> int:
        return len(self.shard_metrics)

    @property
    def completed_requests(self) -> int:
        """Logical requests completed in the measurement window."""
        return self.global_metrics.completed_requests

    @property
    def aggregate_throughput_tx_s(self) -> float:
        """Sum of the per-shard throughputs (capacity actually delivered)."""
        return sum(m.throughput_tx_s for m in self.shard_metrics)

    def as_row(self) -> dict:
        """Flat dictionary used by the experiment tables."""
        row = {
            "shards": self.num_shards,
            "aggregate_throughput_tx_s": round(self.aggregate_throughput_tx_s, 1),
            "imbalance": round(self.imbalance, 3),
        }
        row.update(self.global_metrics.as_row())
        for shard, metrics in enumerate(self.shard_metrics):
            row[f"shard{shard}_tx_s"] = round(metrics.throughput_tx_s, 1)
        if self.health is not None:
            for key, value in self.health.items():
                row[f"health_{key}"] = value
        return row

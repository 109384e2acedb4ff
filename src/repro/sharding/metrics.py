"""Aggregated metrics for sharded deployments.

Each cross-shard client reports twice: every *sub-request* lands in the
collector of the shard that served it, and every *logical* request (all of
its sub-requests merged) lands in the global collector.  Summaries therefore
expose both views — per-shard throughput/latency for imbalance analysis and
a global roll-up comparable to single-group runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..crypto.keystore import KeyStoreStats
from ..runtime.metrics import MetricsCollector, RunMetrics


@dataclass(frozen=True)
class ShardedRunMetrics:
    """Global and per-shard measurement summary of one sharded run."""

    global_metrics: RunMetrics
    shard_metrics: tuple[RunMetrics, ...]
    #: hottest shard's completed operations divided by the per-shard mean;
    #: 1.0 is a perfectly balanced partition.
    imbalance: float
    #: per-shard verification-cache counter snapshots of the shared
    #: deployment-global KeyStore, attributed by signer group.  Deliberately
    #: *not* part of :meth:`as_row`: the row schema (and hence the perf
    #: harness's determinism digests) stays unchanged; this field exists to
    #: measure shared-cache contention at high shard counts.
    shard_verify_cache: tuple[KeyStoreStats, ...] = ()
    #: end-of-run aggregated health across every group's replicas; populated
    #: only when the deployment collects health (same schema-stability rule
    #: as :attr:`~repro.runtime.metrics.RunMetrics.health`).
    health: dict | None = None

    @property
    def num_shards(self) -> int:
        return len(self.shard_metrics)

    @property
    def shard_verify_hit_rates(self) -> tuple[float, ...]:
        """Per-shard verification-cache hit rate (empty when unattributed)."""
        return tuple(stats.hit_rate for stats in self.shard_verify_cache)

    def verify_cache_report(self) -> list[dict]:
        """Per-shard cache-effectiveness rows (for printing/analysis)."""
        return [
            {"shard": shard, "verify_cache_hits": stats.verify_cache_hits,
             "verify_cache_misses": stats.verify_cache_misses,
             "verify_hit_rate": round(stats.hit_rate, 4)}
            for shard, stats in enumerate(self.shard_verify_cache)
        ]

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


@dataclass
class ShardedMetrics:
    """One global collector plus one collector per shard."""

    num_shards: int
    global_collector: MetricsCollector = field(default_factory=MetricsCollector)
    shard_collectors: list[MetricsCollector] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.shard_collectors:
            self.shard_collectors = [MetricsCollector()
                                     for _ in range(self.num_shards)]

    # ----------------------------------------------------------- inspection
    @property
    def completed_count(self) -> int:
        """Logical (cross-shard) requests completed so far."""
        return self.global_collector.completed_count

    def shard_completed_count(self, shard: int) -> int:
        """Sub-requests completed by one shard so far."""
        return self.shard_collectors[shard].completed_count

    def notify_at(self, target: int | None,
                  callback: Callable[[], None] | None = None) -> None:
        """:meth:`MetricsCollector.notify_at` over logical completions."""
        self.global_collector.notify_at(target, callback)

    # -------------------------------------------------------------- summary
    def summarise(self, warmup_fraction: float = 0.1,
                  shard_verify_cache: tuple[KeyStoreStats, ...] = ()
                  ) -> ShardedRunMetrics:
        """Summaries for the global view and every shard, plus imbalance."""
        shard_metrics = tuple(collector.summarise(warmup_fraction)
                              for collector in self.shard_collectors)
        operations = [m.completed_operations for m in shard_metrics]
        mean_ops = sum(operations) / max(1, len(operations))
        imbalance = max(operations) / mean_ops if mean_ops > 0 else 0.0
        return ShardedRunMetrics(
            global_metrics=self.global_collector.summarise(warmup_fraction),
            shard_metrics=shard_metrics,
            imbalance=imbalance,
            shard_verify_cache=shard_verify_cache,
        )

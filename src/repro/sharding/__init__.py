"""Sharded multi-group deployments: scale-out consensus over a partitioned keyspace."""

from .config import ShardedConfig
from .deployment import ShardedDeployment, ShardedRunResult
from .metrics import ShardedMetrics, ShardedRunMetrics
from .router import ShardRouter

__all__ = [
    "ShardRouter",
    "ShardedConfig",
    "ShardedDeployment",
    "ShardedMetrics",
    "ShardedRunMetrics",
    "ShardedRunResult",
]

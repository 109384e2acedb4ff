"""Sharded multi-group deployments: scale-out consensus over a partitioned keyspace.

A sharded deployment is described by the same
:class:`~repro.runtime.spec.DeploymentSpec` as a plain one (``num_shards``
set) and returns the same :class:`~repro.runtime.deployment.RunResult`,
whose ``metrics`` are a :class:`ShardedRunMetrics`.
"""

from .deployment import ShardedDeployment
from .metrics import ShardedRunMetrics
from .router import ShardRouter

__all__ = [
    "ShardRouter",
    "ShardedDeployment",
    "ShardedRunMetrics",
]

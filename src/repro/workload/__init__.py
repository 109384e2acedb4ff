"""Workload generation (YCSB), closed-loop clients and the open-loop engine."""

from .client import Client, ClientStats, CompletionSink
from .openloop import (
    OpenLoopConfig,
    OpenLoopEngine,
    OpenLoopStats,
    attach_open_loop,
    run_open_loop,
)
from .sharded_client import ShardedClient, ShardedClientStats
from .ycsb import YcsbWorkload
from .zipf import ZipfianGenerator

__all__ = [
    "Client",
    "ClientStats",
    "CompletionSink",
    "OpenLoopConfig",
    "OpenLoopEngine",
    "OpenLoopStats",
    "ShardedClient",
    "ShardedClientStats",
    "YcsbWorkload",
    "ZipfianGenerator",
    "attach_open_loop",
    "run_open_loop",
]

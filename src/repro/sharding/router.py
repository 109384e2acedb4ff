"""Deterministic hash partitioning of the keyspace over consensus groups.

A sharded deployment runs *K* independent replica groups; the router decides,
for every key, which group owns it.  Routing must be (a) stable — every
client and every experiment run agrees on the owner of a key — and (b)
independent of Python's per-process hash randomisation, so the partition is
identical across runs and machines.  Both follow from deriving the shard
index from a SHA-256 digest of ``"{seed}/{key}"``.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

from ..common.errors import ConfigurationError
from ..execution.state_machine import Operation


class ShardRouter:
    """Maps keys (and the operations touching them) to shard indexes."""

    def __init__(self, num_shards: int, seed: int = 0) -> None:
        if num_shards <= 0:
            raise ConfigurationError("a sharded deployment needs at least one shard")
        self._num_shards = num_shards
        self._seed = seed


    @property
    def seed(self) -> int:
        """Seed mixed into the key hash (varies the partition, not the keys)."""
        return self._seed

    # -------------------------------------------------------------- routing
    def shard_of(self, key: str) -> int:
        """The shard owning ``key``; always in ``[0, num_shards)``."""
        material = f"{self._seed}/{key}".encode()
        value = int.from_bytes(hashlib.sha256(material).digest()[:8], "big")
        return value % self._num_shards

    def shard_of_operation(self, operation: Operation) -> int:
        """The shard owning the key an operation touches."""
        return self.shard_of(operation.key)

    def partition(self, operations: Iterable[Operation]) -> dict[int, list[Operation]]:
        """Group operations by owning shard, preserving per-shard order."""
        by_shard: dict[int, list[Operation]] = {}
        for operation in operations:
            by_shard.setdefault(self.shard_of(operation.key), []).append(operation)
        return by_shard

    # ----------------------------------------------------------- inspection
    def distribution(self, keys: Iterable[str]) -> dict[int, int]:
        """Count of keys per shard (diagnostics and imbalance reporting)."""
        counts = {shard: 0 for shard in range(self._num_shards)}
        for key in keys:
            counts[self.shard_of(key)] += 1
        return counts

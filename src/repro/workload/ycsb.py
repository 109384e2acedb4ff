"""YCSB-style workload generation (Section 9.2).

Generates key-value operations against a ``records``-sized store: reads and
writes with a configurable mix, keys drawn from a zipfian distribution.  The
generator is deterministic given its seed, so clients across a deployment
produce reproducible traffic.
"""

from __future__ import annotations

import hashlib
import random

from ..common.config import WorkloadConfig
from ..execution.state_machine import Operation
from .zipf import ZipfianGenerator

#: skew of the key popularity distribution (YCSB's zipfian constant).
ZIPF_THETA = 0.9
#: characters per written value.
VALUE_SIZE = 64


class YcsbWorkload:
    """Produces YCSB operations for one client."""

    def __init__(self, config: WorkloadConfig, rng: random.Random) -> None:
        self._config = config
        self._rng = rng
        self._zipf = ZipfianGenerator(config.records, ZIPF_THETA, rng)
        self._generated = 0

    @property
    def generated(self) -> int:
        """Number of operations generated so far."""
        return self._generated

    def next_operation(self) -> Operation:
        """Generate the next operation (read or write, zipfian key)."""
        self._generated += 1
        key = f"user{self._zipf.next()}"
        if self._rng.random() < self._config.write_fraction:
            return Operation(action="write", key=key,
                             value=self._payload(key, self._generated))
        return Operation(action="read", key=key)

    def next_operations(self, count: int) -> list[Operation]:
        """Generate a list of operations (client-side batching)."""
        return [self.next_operation() for _ in range(count)]

    def _payload(self, key: str, nonce: int) -> str:
        material = f"{key}/{nonce}/{self._rng.random()}".encode()
        seed = hashlib.sha256(material).hexdigest()
        return (seed * (VALUE_SIZE // len(seed) + 1))[:VALUE_SIZE]

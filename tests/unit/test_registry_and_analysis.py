"""Unit tests for the protocol registry, Figure 1 analysis and FlexiTrust transform."""

import pytest

from repro.common.errors import ConfigurationError
from repro.core.analysis import figure1_table, format_table
from repro.core.flexitrust import (
    transform,
    transformable_protocols,
    trusted_accesses_per_batch,
)
from repro.protocols import PROTOCOLS, get_protocol, protocol_names
from repro.protocols.family import (FIGURE5_BARS, OwnCounterBinding,
                                    OwnLogBinding, PrimaryOnlyBinding)
from repro.runtime.experiments import ExperimentScale, build_config
from repro.runtime.spec import DeploymentSpec

CENSUS_SCALE = ExperimentScale(
    name="census", f=1, num_clients=40, batch_size=10, warmup_batches=2,
    measured_batches=10, worker_threads=8, max_sim_seconds=20.0)


class TestRegistry:
    def test_all_ten_protocols_registered(self):
        expected = {"pbft", "zyzzyva", "pbft-ea", "opbft-ea", "minbft", "minzz",
                    "flexi-bft", "flexi-zz", "oflexi-bft", "oflexi-zz"}
        assert expected == set(protocol_names())

    def test_lookup_is_case_insensitive(self):
        assert get_protocol("Flexi-BFT").name == "flexi-bft"

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigurationError):
            get_protocol("raft")

    def test_replication_factors(self):
        assert get_protocol("pbft").replicas(8) == 25
        assert get_protocol("minbft").replicas(8) == 17
        assert get_protocol("flexi-zz").replicas(20) == 61

    def test_trust_bft_protocols_are_sequential(self):
        for name in ("pbft-ea", "minbft", "minzz"):
            assert get_protocol(name).sequential

    def test_flexitrust_protocols_are_parallel_3f1(self):
        for name in ("flexi-bft", "flexi-zz"):
            spec = get_protocol(name)
            assert not spec.sequential
            assert spec.replicas(1) == 4
            assert spec.only_primary_tc

    def test_reply_policies_match_paper(self):
        f, m = 8, 25
        assert get_protocol("pbft").reply_policy(m, f).fast_quorum == 9
        assert get_protocol("flexi-bft").reply_policy(m, f).fast_quorum == 9
        assert get_protocol("flexi-zz").reply_policy(m, f).fast_quorum == 17
        assert get_protocol("zyzzyva").reply_policy(m, f).fast_quorum == 25
        assert get_protocol("minzz").reply_policy(17, f).fast_quorum == 17

    def test_phase_counts(self):
        assert get_protocol("pbft").phases == 3
        assert get_protocol("pbft-ea").phases == 3
        assert get_protocol("minbft").phases == 2
        assert get_protocol("flexi-bft").phases == 2
        assert get_protocol("minzz").phases == 1
        assert get_protocol("flexi-zz").phases == 1

    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    def test_the_spec_says_what_the_replica_class_declares(self, name):
        spec = PROTOCOLS[name]
        assert spec.uses_trusted == spec.replica_class.attested
        assert spec.only_primary_tc == issubclass(spec.replica_class,
                                                  PrimaryOnlyBinding)
        assert spec.trusted_at_all_replicas == issubclass(
            spec.replica_class, (OwnCounterBinding, OwnLogBinding))
        for f in (1, 2, 3):
            config = build_config(name, CENSUS_SCALE, f=f, num_clients=1)
            with DeploymentSpec(config).build() as deployment:
                assert all(type(r) is spec.replica_class
                           for r in deployment.replicas)
                pinned = deployment.protocol_config.max_outstanding == 1
                assert pinned == spec.sequential
                expected = f + 1 if spec.trusted_at_all_replicas else 2 * f + 1
                assert {r.quorum for r in deployment.replicas} == {expected}


#: What every registry name deploys, pinned as literals: whether consensus
#: runs sequentially, then for f = 1, 2, 3 the replica count, the replicas'
#: vote quorum, the client's fast reply quorum, and the slow path's
#: (commit-certificate, ack) sizes — None for protocols without a slow path.
PINNED = {
    "pbft": (False, [(4, 3, 2, None), (7, 5, 3, None), (10, 7, 4, None)]),
    "zyzzyva": (False, [(4, 3, 4, (3, 3)), (7, 5, 7, (5, 5)), (10, 7, 10, (7, 7))]),
    "pbft-ea": (True, [(3, 2, 2, None), (5, 3, 3, None), (7, 4, 4, None)]),
    "opbft-ea": (False, [(3, 2, 2, None), (5, 3, 3, None), (7, 4, 4, None)]),
    "minbft": (True, [(3, 2, 2, None), (5, 3, 3, None), (7, 4, 4, None)]),
    "minzz": (True, [(3, 2, 3, (2, 2)), (5, 3, 5, (3, 3)), (7, 4, 7, (4, 4))]),
    "flexi-bft": (False, [(4, 3, 2, None), (7, 5, 3, None), (10, 7, 4, None)]),
    "flexi-zz": (False, [(4, 3, 3, None), (7, 5, 5, None), (10, 7, 7, None)]),
    "oflexi-bft": (True, [(4, 3, 2, None), (7, 5, 3, None), (10, 7, 4, None)]),
    "oflexi-zz": (True, [(4, 3, 3, None), (7, 5, 5, None), (10, 7, 7, None)]),
}

#: ``format_table(figure1_table(include_baselines=True))``, byte for byte.
FIGURE1_TEXT = "\n".join([
    "Protocol         Replicas         Trusted          BFT liveness     Out-of-order     Memory           Only primary TC",
    "Flexi-BFT        3f+1             counter          yes              yes              low              yes            ",
    "Flexi-ZZ         3f+1             counter          yes              yes              low              yes            ",
    "MinBFT           2f+1             counter          no               no               low              no             ",
    "MinZZ            2f+1             counter          no               no               low              no             ",
    "Opbft-ea         2f+1             log              no               yes              high             no             ",
    "Pbft             3f+1             none             yes              yes              none             no             ",
    "Pbft-EA          2f+1             log              no               no               high             no             ",
    "Zyzzyva          3f+1             none             yes              yes              none             no             ",
])


def _reply_sizes(spec, n, f):
    """The client's fast quorum and slow-path (certificate, ack) sizes."""
    policy = spec.reply_policy(n, f)
    slow = policy.slow_quorum
    return policy.fast_quorum, None if slow is None else (slow, slow)


class TestPinnedDerivation:
    """The differential check for registry edits: every consequence of a
    protocol's declaration, as literals, so a rewrite of how they are derived
    must reproduce each of them."""

    def test_pinned_table_covers_every_protocol(self):
        assert sorted(PINNED) == protocol_names()

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_protocol_deploys_as_pinned(self, name):
        spec = get_protocol(name)
        sequential, per_f = PINNED[name]
        for f, (n, quorum, fast, slow) in zip((1, 2, 3), per_f):
            assert spec.replicas(f) == n
            assert _reply_sizes(spec, n, f) == (fast, slow)
            config = build_config(name, CENSUS_SCALE, f=f, num_clients=1)
            with DeploymentSpec(config).build() as deployment:
                assert deployment.n == n
                assert {r.quorum for r in deployment.replicas} == {quorum}
                assert (deployment.protocol_config.max_outstanding == 1) == sequential

    def test_figure1_text_is_pinned(self):
        assert format_table(figure1_table(include_baselines=True)) == FIGURE1_TEXT


class TestFigure1:
    def test_table_contains_trusted_protocols_only_by_default(self):
        rows = {row.protocol for row in figure1_table()}
        assert "Pbft" not in rows
        assert {"MinBFT", "MinZZ", "Pbft-EA", "Flexi-BFT", "Flexi-ZZ"} <= rows

    def test_flexitrust_rows_match_paper_claims(self):
        rows = {row.protocol: row for row in figure1_table()}
        for name in ("Flexi-BFT", "Flexi-ZZ"):
            row = rows[name]
            assert row.replicas == "3f+1"
            assert row.bft_liveness
            assert row.out_of_order
            assert row.only_primary_tc
            assert row.trusted_memory == "low"

    def test_trust_bft_rows_match_paper_claims(self):
        rows = {row.protocol: row for row in figure1_table()}
        assert rows["Pbft-EA"].trusted_memory == "high"
        assert not rows["MinBFT"].out_of_order
        assert not rows["MinZZ"].bft_liveness
        assert rows["MinBFT"].replicas == "2f+1"

    def test_format_table_renders_every_row(self):
        rows = figure1_table(include_baselines=True)
        text = format_table(rows)
        for row in rows:
            assert row.protocol in text


class TestTransformation:
    def test_transformable_protocols_are_the_trust_bft_ones(self):
        assert set(transformable_protocols()) == {"minbft", "minzz", "pbft-ea",
                                                  "opbft-ea"}

    def test_minbft_maps_to_flexi_bft(self):
        assert transform("minbft").target.name == "flexi-bft"

    def test_minzz_maps_to_flexi_zz(self):
        assert transform("minzz").target.name == "flexi-zz"

    def test_transformation_has_three_steps(self):
        transformation = transform("minbft")
        assert len(transformation.steps) == 3
        assert "AppendF" in transformation.summary()

    def test_bft_protocols_not_transformable(self):
        with pytest.raises(ConfigurationError):
            transform("pbft")
        with pytest.raises(ConfigurationError):
            transform("flexi-zz")

    def test_trusted_access_counts_favour_flexitrust(self):
        n = 17
        flexi = trusted_accesses_per_batch(PROTOCOLS["flexi-bft"], n)
        minbft = trusted_accesses_per_batch(PROTOCOLS["minbft"], n)
        pbft = trusted_accesses_per_batch(PROTOCOLS["pbft"], n)
        assert flexi == 1
        assert minbft > flexi
        assert pbft == 0


def _census_rates(spec):
    """Trusted accesses per batch at the primary and at a backup, and the
    one-off ``Create`` of a FlexiTrust primary, by what the component binds."""
    if spec.only_primary_tc:
        return 1, 0, 1
    per_replica = 2 if issubclass(spec.replica_class, OwnLogBinding) else 1
    return per_replica, per_replica, 0


#: Trusted accesses per batch (primary, backup) of each Figure 5 bar: one in
#: Preprepare, or one in each of Preprepare, Prepare and Commit.
FIGURE5_RATES = {"a": (0, 0), "b": (1, 0), "c": (1, 0), "d": (3, 0),
                 "e": (1, 1), "f": (1, 1), "g": (3, 3)}


def _assert_census(deployment, k_primary, k_backup, creates):
    """Run ``deployment`` and hold every replica's trusted accesses to its
    rate per executed batch, up to the outstanding window; returns n."""
    deployment.run_until_target()
    window = deployment.protocol_config.max_outstanding
    for replica in deployment.replicas:
        rate, extra = ((k_primary, creates) if replica.is_primary
                       else (k_backup, 0))
        executed = replica.stats.batches_executed
        assert executed > 0
        assert (rate * executed + extra
                <= replica.trusted.stats.total
                <= rate * (executed + window) + extra)
    return len(deployment.replicas)


class TestTrustedAccessCensus:
    """The paper's G2 (Section 8): O(1) against O(n) trusted accesses."""

    @pytest.mark.parametrize("f", (1, 2))
    @pytest.mark.parametrize(
        "name", [name for name in sorted(PROTOCOLS) if PROTOCOLS[name].uses_trusted])
    def test_replicas_access_trusted_hardware_as_often_as_predicted(self, name, f):
        spec = PROTOCOLS[name]
        k_primary, k_backup, creates = _census_rates(spec)
        with DeploymentSpec(build_config(name, CENSUS_SCALE, f=f)).build() as deployment:
            n = _assert_census(deployment, k_primary, k_backup, creates)
        assert trusted_accesses_per_batch(spec, n) == k_primary + (n - 1) * k_backup

    @pytest.mark.parametrize("f", (1, 2))
    @pytest.mark.parametrize("bar", FIGURE5_BARS, ids=lambda bar: bar.label)
    def test_each_figure5_bar_accesses_trusted_hardware_as_declared(self, bar, f):
        k_primary, k_backup = FIGURE5_RATES[bar.label]
        config = build_config("pbft", CENSUS_SCALE, f=f)
        with DeploymentSpec(config, trusted_usage=bar).build() as deployment:
            _assert_census(deployment, k_primary, k_backup, 0)

    def test_pbft_ea_binds_two_messages_per_replica_and_flexitrust_one_in_all(self):
        for n in (3, 5):
            assert trusted_accesses_per_batch(PROTOCOLS["pbft-ea"], n) == 2 * n
            assert trusted_accesses_per_batch(PROTOCOLS["opbft-ea"], n) == 2 * n
            assert trusted_accesses_per_batch(PROTOCOLS["minbft"], n) == n
            assert trusted_accesses_per_batch(PROTOCOLS["minzz"], n) == n
        assert trusted_accesses_per_batch(PROTOCOLS["flexi-zz"], 7) == 1

"""Integration tests for the Section 5–7 claims rows."""

import pytest

from repro.common.config import (
    DeploymentConfig,
    ExperimentConfig,
    FaultConfig,
    ProtocolConfig,
    SGX_ENCLAVE_COUNTER,
    SGX_PERSISTENT_COUNTER,
    WorkloadConfig,
)
from repro.common.errors import ConfigurationError
from repro.common.types import RequestId, ms
from repro.core.claims import (
    RESPONSIVENESS_PROTOCOLS,
    ROLLBACK_PROTOCOLS,
    ROLLBACK_VARIANTS,
    claims_table,
    responsiveness_row,
    rollback_row,
    sequential_throughput_bound,
    sequentiality_row,
)
from repro.execution.state_machine import Operation
from repro.protocols.messages import (
    ClientRequest,
    Commit,
    PrePrepare,
    Prepare,
    RequestBatch,
)
from repro.runtime.deployment import Deployment


class TestResponsiveness:
    """Section 5: weak quorums break client responsiveness in trust-bft."""

    @pytest.fixture(scope="class")
    def minbft_report(self):
        return responsiveness_row("minbft", f=2)

    @pytest.fixture(scope="class")
    def pbft_report(self):
        return responsiveness_row("pbft", f=2)

    def test_minbft_client_never_completes(self, minbft_report):
        assert not minbft_report["client_completed"]
        assert (minbft_report["responses_at_client"]
                < minbft_report["required_responses"])

    def test_minbft_consensus_still_commits_at_one_honest_replica(self, minbft_report):
        assert minbft_report["honest_replicas_executed"] == 1

    def test_minbft_view_change_cannot_gather_enough_votes(self, minbft_report):
        assert minbft_report["view_changes_completed"] == 0
        assert minbft_report["view_change_votes"] < minbft_report["f"] + 1 + 1

    def test_pbft_recovers_and_stays_responsive(self, pbft_report):
        assert pbft_report["client_completed"]
        assert pbft_report["honest_replicas_executed"] >= pbft_report["f"] + 1

    def test_pbft_uses_view_change_to_recover(self, pbft_report):
        assert pbft_report["view_changes_completed"] >= 1

    def test_reports_record_required_quorums(self, minbft_report, pbft_report):
        assert minbft_report["required_responses"] == minbft_report["f"] + 1
        assert pbft_report["required_responses"] == pbft_report["f"] + 1


class TestRollback:
    """Section 6: volatile trusted state enables equivocation."""

    def test_volatile_hardware_leads_to_safety_violation(self):
        report = rollback_row(SGX_ENCLAVE_COUNTER, "minbft", "host-snapshot")
        assert report["rollback_succeeded"]
        assert report["safety_violated"]
        assert report["conflicting_digests_at_seq1"] == 2
        assert report["violations"]

    def test_clients_would_accept_both_conflicting_transactions(self):
        report = rollback_row(SGX_ENCLAVE_COUNTER, "minbft", "host-snapshot")
        assert report["responses_for_first"] >= 2   # f + 1 with f = 1
        assert report["responses_for_second"] >= 2

    def test_persistent_hardware_defeats_the_attack(self):
        report = rollback_row(SGX_PERSISTENT_COUNTER, "minbft", "host-snapshot")
        assert not report["rollback_succeeded"]
        assert not report["safety_violated"]
        assert report["conflicting_digests_at_seq1"] <= 1

    def test_unknown_attack_is_rejected(self):
        with pytest.raises(ConfigurationError):
            rollback_row(SGX_ENCLAVE_COUNTER, "minbft", "bribe-the-host")


class TestSequentiality:
    """Section 7: trusted counters force sequential consensus."""

    def test_out_of_order_binding_rejected(self):
        report = sequentiality_row()
        assert report["out_of_order_rejected"]
        assert report["stalled_seq"] == 1

    def test_parallel_estimate_beats_sequential_bound(self):
        report = sequentiality_row()
        assert (report["parallel_estimate_tx_s"]
                / report["sequential_bound_tx_s"]) == pytest.approx(32.0)

    def test_bound_formula_matches_paper_example(self):
        # Section 9.9: at 10 ms per access, 10 k tx/s = batch(100) x 1 s / 10 ms.
        assert sequential_throughput_bound(100, 1, 10_000.0) == pytest.approx(10_000.0)

    def test_bound_scales_with_batch_and_phases(self):
        one_phase = sequential_throughput_bound(100, 1, 1_000.0)
        three_phases = sequential_throughput_bound(100, 3, 1_000.0)
        assert one_phase == pytest.approx(3 * three_phases)


class TestClaimsTable:
    """The paper's outcome on every row where this repo agrees with it.

    The flexi-zz rows that disagree (the client is lost under Section 5,
    and the safety monitor flags speculative divergence in three Section 6
    rows) are pinned by the ``claims`` determinism digest only.
    """

    @pytest.fixture(scope="class")
    def table(self):
        return claims_table()

    @staticmethod
    def _rows(table, section, **match):
        return [row for row in table if row["section"] == section
                and all(row[key] == value for key, value in match.items())]

    def test_nineteen_rows_in_section_order(self, table):
        assert len(table) == 19
        assert [row["section"] for row in table] == [5] * 6 + [6] * 12 + [7]
        assert ([row["protocol"] for row in self._rows(table, 5)]
                == list(RESPONSIVENESS_PROTOCOLS))
        assert ([(row["protocol"], row["attack"], row["hardware"])
                 for row in self._rows(table, 6)]
                == [(protocol, attack, hardware.name)
                    for protocol in ROLLBACK_PROTOCOLS
                    for attack, hardware in ROLLBACK_VARIANTS])

    @pytest.mark.parametrize("protocol", ["pbft", "flexi-bft"])
    def test_3f_plus_1_protocols_complete_under_section_5(self, table,
                                                          protocol):
        (row,) = self._rows(table, 5, protocol=protocol)
        assert row["client_completed"]

    @pytest.mark.parametrize("protocol", ["minbft", "minzz", "pbft-ea"])
    def test_2f_plus_1_protocols_lose_the_client_under_section_5(
            self, table, protocol):
        (row,) = self._rows(table, 5, protocol=protocol)
        assert not row["client_completed"]
        assert row["honest_replicas_executed"] == 1

    def test_minbft_volatile_rows_are_violated(self, table):
        rows = self._rows(table, 6, protocol="minbft",
                          hardware=SGX_ENCLAVE_COUNTER.name)
        assert [row["attack"] for row in rows] == ["host-snapshot", "restart"]
        assert all(row["safety_violated"] for row in rows)

    def test_minbft_persistent_rows_are_not(self, table):
        rows = [row for row in self._rows(table, 6, protocol="minbft")
                if row["hardware"] != SGX_ENCLAVE_COUNTER.name]
        assert len(rows) == 2
        assert not any(row["safety_violated"] for row in rows)

    def test_flexi_bft_is_safe_in_all_four_section_6_rows(self, table):
        rows = self._rows(table, 6, protocol="flexi-bft")
        assert len(rows) == 4
        assert not any(row["safety_violated"] for row in rows)
        assert all(row["conflicting_digests_at_seq1"] == 1 for row in rows)

    def test_section_7_rejects_the_out_of_order_bind(self, table):
        (row,) = self._rows(table, 7)
        assert row["out_of_order_rejected"]


def _batch(number: int, value: str) -> RequestBatch:
    request = ClientRequest(
        request_id=RequestId(client="client-0", number=number),
        operations=(Operation(action="write", key="account", value=value),))
    return RequestBatch(requests=(request,))


def _equivocate_at_seq1(protocol: str, create_per_batch: bool = False):
    """A byzantine primary attests two batches and serves both as seq 1.

    The primary binds ``T`` and then ``T'`` through its own binding (two
    counter values, two log slots or two ``AppendF`` values) and sends each
    to one honest backup as the proposal for sequence 1, followed by its own
    Prepare and Commit votes for it.  With ``create_per_batch`` a FlexiTrust
    primary mints a fresh counter before each batch, so both attestations
    carry value 1.  Returns the deployment's safety monitor.
    """
    config = DeploymentConfig(
        protocol=protocol, f=1,
        workload=WorkloadConfig(num_clients=1, records=16),
        protocol_config=ProtocolConfig(batch_size=1, checkpoint_interval=10_000),
        faults=FaultConfig(byzantine=(0,)),
        experiment=ExperimentConfig(seed=7),
    )
    with Deployment(config) as deployment:
        primary = deployment.primary
        for target, batch in ((1, _batch(1, "to-alice")), (2, _batch(2, "to-bob"))):
            name = deployment.replica(target).name
            primary.make_byzantine(lambda destination, message, name=name:
                                   destination == name)
            batch_digest = batch.digest()
            if create_per_batch:
                counter_id, _ = primary.trusted.create_counter(0)
                attestation = primary.trusted.append_f(counter_id, batch_digest)
            else:
                _, attestation = primary.order(batch_digest)
            fields = dict(view=0, seq=1, batch_digest=batch_digest,
                          attestation=attestation)
            primary.broadcast(primary.signed(PrePrepare(
                batch=batch, primary=0, **fields)))
            primary.broadcast(primary.signed(Prepare(replica=0, **fields)))
            primary.broadcast(primary.signed(Commit(replica=0, **fields)))
        deployment.sim.run(until=ms(200))
        return deployment.safety


class TestProposalBinding:
    """Backups check which (counter, value) a proposal's attestation binds.

    An attestation that verifies proves only that the primary's component
    bound the batch to *some* slot; a backup must also check that the slot
    is the one the proposal claims, or the primary equivocates freely.
    """

    @pytest.mark.parametrize("protocol", ["minbft", "minzz", "pbft-ea",
                                          "opbft-ea", "flexi-zz", "flexi-bft"])
    def test_primary_cannot_serve_two_attested_batches_at_seq1(self, protocol):
        safety = _equivocate_at_seq1(protocol)
        assert safety.consensus_safe
        assert len(safety.distinct_digests_at(1)) <= 1

    @pytest.mark.parametrize("protocol", [
        pytest.param("flexi-zz", marks=pytest.mark.xfail(
            strict=True, reason="a backup cannot tell the view's counter from "
            "a fresh Create: NewView does not carry the Create attestation")),
        "flexi-bft",
    ])
    def test_primary_cannot_create_a_counter_per_batch(self, protocol):
        safety = _equivocate_at_seq1(protocol, create_per_batch=True)
        assert safety.consensus_safe

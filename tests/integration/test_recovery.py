"""Crash-recovery integration: restart, state transfer, rejoin, rollback."""

from functools import partial

import pytest

from repro.common.config import (
    DeploymentConfig,
    ExperimentConfig,
    FaultConfig,
    ProtocolConfig,
    RecoveryConfig,
    ROLLBACK_PROTECTED_COUNTER,
    SGX_ENCLAVE_COUNTER,
    WorkloadConfig,
)
from repro.common.errors import ConfigurationError
from repro.common.types import ms, seconds
from repro.core.claims import rollback_row
from repro.net.network import MessageRule
from repro.protocols.messages import CheckpointReply
from repro.recovery import (
    FaultSchedule,
    crash_at,
    heal_at,
    partition_at,
    restart_at,
)
from repro.runtime import Deployment
from repro.runtime.spec import DeploymentSpec


def recovery_config(protocol, recovery=None, seed=5, clients=12):
    return DeploymentConfig(
        protocol=protocol, f=1,
        workload=WorkloadConfig(num_clients=clients, records=100),
        protocol_config=ProtocolConfig(
            batch_size=4, worker_threads=4, checkpoint_interval=20,
            request_timeout_us=ms(60), view_change_timeout_us=ms(60)),
        experiment=ExperimentConfig(warmup_batches=1, measured_batches=8,
                                    seed=seed),
        recovery=recovery if recovery is not None else RecoveryConfig(),
    )


class TestCrashRestartRejoin:
    @pytest.mark.parametrize("protocol,crashed", [
        ("minbft", 2), ("flexi-bft", 3), ("pbft", 3), ("flexi-zz", 3),
    ])
    def test_restarted_replica_transfers_state_and_rejoins(self, protocol, crashed):
        """The acceptance scenario: crash mid-run, restart, state transfer,
        then participation in *new* consensus instances with a ledger that
        matches the honest majority."""
        schedule = FaultSchedule((crash_at(crashed, ms(300)),
                                  restart_at(crashed, ms(600))))
        spec = DeploymentSpec(recovery_config(protocol), fault_schedule=schedule)
        with spec.build() as deployment:
            deployment.start_clients()
            deployment.sim.run(until=ms(600))
            frontier_at_restart = max(r.ledger.last_executed
                                      for r in deployment.replicas)
            deployment.sim.run(until=seconds(2.0))

            rejoined = deployment.replica(crashed)
            # One recovery for the restart itself; the lag trigger may legally
            # run further catch-up rounds if the frontier outran the first pass.
            assert rejoined.stats.recoveries_started >= 1
            assert (rejoined.stats.recoveries_completed
                    == rejoined.stats.recoveries_started)
            assert not rejoined.recovering

            # It caught up past everything decided while it was down and kept
            # executing new instances after the rejoin.
            assert rejoined.ledger.last_executed > frontier_at_restart
            others = [r for r in deployment.replicas if r.replica_id != crashed]
            assert rejoined.ledger.last_executed >= min(
                r.ledger.last_executed for r in others) - 4

            # Executed-ledger digests match the honest majority at every recent
            # sequence number all replicas retain.
            common = min(r.ledger.last_executed for r in deployment.replicas)
            digests = {r.executed_digest(common) for r in deployment.replicas
                       if r.executed_digest(common) is not None}
            assert len(digests) == 1
            assert deployment.safety.consensus_safe
            assert deployment.safety.rsm_safe

            # Participation, not just observation: its post-rejoin votes appear
            # in the live instances of its peers.  (Flexi-ZZ has no Prepare
            # phase — replicas participate by executing speculatively and
            # replying, which the execution assertions above already cover.)
            if protocol != "flexi-zz":
                assert any(crashed in inst.prepares
                           for other in others for inst in other.instances.values())

    def test_recovery_with_wiped_store_uses_peer_transfer(self):
        """A seat with no local state catches up by peer transfer alone."""
        schedule = FaultSchedule((crash_at(2, ms(300)),))
        spec = DeploymentSpec(recovery_config("minbft"), fault_schedule=schedule)
        with spec.build() as deployment:
            deployment.sim.schedule_at(
                ms(600), partial(deployment.restart_replica, 2, wipe_store=True))
            deployment.start_clients()
            deployment.sim.run(until=seconds(2.0))
            rejoined = deployment.replica(2)
            assert rejoined.stats.recoveries_completed >= 1
            assert rejoined.stats.log_fill_batches_applied > 0
            assert deployment.safety.consensus_safe

    def test_fsync_latency_prices_durability(self):
        """A slower disk lowers throughput: the fsync sits on the path of
        messages that follow a durable write."""
        slow_disk = recovery_config(
            "flexi-bft", recovery=RecoveryConfig(fsync_latency_us=ms(2.0)))
        with DeploymentSpec(recovery_config("flexi-bft")).build() as fast:
            fast_result = fast.run_until_target(target_requests=120)
        with DeploymentSpec(slow_disk).build() as slow:
            slow_result = slow.run_until_target(target_requests=120)
        assert (slow_result.metrics.mean_latency_ms
                > fast_result.metrics.mean_latency_ms)

    def test_partition_heal_triggers_lag_recovery(self):
        schedule = FaultSchedule((
            partition_at((3,), ms(200), name="isolate"),
            heal_at(ms(600), name="isolate"),
        ))
        spec = DeploymentSpec(recovery_config("flexi-bft"), fault_schedule=schedule)
        with spec.build() as deployment:
            deployment.start_clients()
            deployment.sim.run(until=seconds(1.5))
            lagged = deployment.replica(3)
            assert lagged.stats.recoveries_completed >= 1
            assert lagged.ledger.last_executed >= min(
                r.ledger.last_executed for r in deployment.replicas
                if r.replica_id != 3) - 4
            assert deployment.safety.consensus_safe

    def test_a_lost_transfer_round_is_re_requested_on_the_timer(self):
        """Every CheckpointReply to the rejoining replica is lost until
        ``lost_until``: with no reply, no catch-up target is known, so only
        the recovery timer's re-request lets the replica rejoin."""
        restart, lost_until = ms(600), ms(700)
        schedule = FaultSchedule((crash_at(3, ms(300)),
                                  restart_at(3, restart)))
        spec = DeploymentSpec(recovery_config("pbft"), fault_schedule=schedule)
        with spec.build() as deployment:
            rule = deployment.network.add_rule(MessageRule(
                name="lose-checkpoint-replies",
                destinations=frozenset({deployment.replica(3).name}),
                matcher=lambda payload: isinstance(payload, CheckpointReply),
                drop=True, until_us=lost_until))
            deployment.start_clients()
            deployment.sim.run(until=seconds(2.0))

            rejoined = deployment.replica(3)
            # Every peer answered the first round, and the answers were lost.
            assert rule.hits >= len(deployment.replicas) - 1
            assert rejoined.stats.recoveries_started >= 1
            assert (rejoined.stats.recoveries_completed
                    == rejoined.stats.recoveries_started)
            assert not rejoined.recovering
            assert rejoined.recovered_at > lost_until
            others = [r for r in deployment.replicas if r.replica_id != 3]
            assert rejoined.ledger.last_executed >= min(
                r.ledger.last_executed for r in others) - 4
            assert deployment.safety.consensus_safe
            assert deployment.safety.rsm_safe


class TestRestartRollback:
    def test_volatile_counter_restart_rollback_flagged(self):
        report = rollback_row(SGX_ENCLAVE_COUNTER, "minbft", "restart")
        assert report["attack"] == "restart"
        assert report["rollback_succeeded"]       # the counter reset to zero
        assert report["safety_violated"]          # flagged by the monitor
        assert report["conflicting_digests_at_seq1"] == 2

    def test_persistent_counter_restart_rollback_defeated(self):
        report = rollback_row(ROLLBACK_PROTECTED_COUNTER, "minbft", "restart")
        assert not report["rollback_succeeded"]   # the counter resumed
        assert not report["safety_violated"]
        assert report["conflicting_digests_at_seq1"] == 1


class TestByzantineResistantTransfer:
    def test_forged_log_fill_needs_f_plus_1_vouchers(self):
        """A self-consistent but fabricated LogFill entry from one peer is
        buffered, not executed; a second voucher (f + 1 = 2) releases it."""
        from repro.common.types import RequestId
        from repro.execution.state_machine import Operation
        from repro.protocols.messages import (
            ClientRequest, LogFill, LogFillEntry, RequestBatch)

        with DeploymentSpec(recovery_config("minbft")).build() as deployment:
            rejoiner = deployment.replica(2)
            rejoiner.begin_recovery()
            forged = RequestBatch(requests=(ClientRequest(
                request_id=RequestId(client="attacker", number=1),
                operations=(Operation(action="write", key="user1", value="evil"),)),))
            entry = LogFillEntry(seq=1, view=0, batch=forged,
                                 batch_digest=forged.digest())
            fill = LogFill(replica=0, entries=(entry,))

            rejoiner.on_log_fill(fill, source="replica-0")
            assert rejoiner.ledger.last_executed == 0  # one voucher is not enough
            rejoiner.on_log_fill(fill, source="replica-0")
            assert rejoiner.ledger.last_executed == 0  # re-sending is not a 2nd vote
            rejoiner.on_log_fill(LogFill(replica=1, entries=(entry,)),
                                 source="replica-1")
            assert rejoiner.ledger.last_executed == 1  # f + 1 distinct vouchers

    def test_certificate_votes_must_be_signed_by_their_claimed_replicas(self):
        """One peer signing f+1 votes with its own key is not a certificate."""
        from repro.protocols.messages import Checkpoint, CheckpointReply

        with DeploymentSpec(recovery_config("minbft")).build() as deployment:
            rejoiner = deployment.replica(2)
            byzantine = deployment.replica(0)
            state_digest = b"\x42" * 32
            forged_votes = tuple(
                byzantine.signed(Checkpoint(seq=20, state_digest=state_digest,
                                            replica=claimed))
                for claimed in (0, 1))
            reply = CheckpointReply(
                replica=0, checkpoint_seq=20, state_digest=state_digest,
                last_executed=20, view=0, snapshot={}, certificate=forged_votes)
            assert not rejoiner._certificate_valid(reply)
            # The same votes signed by their actual claimed replicas do verify.
            honest_votes = tuple(
                deployment.replica(claimed).signed(
                    Checkpoint(seq=20, state_digest=state_digest, replica=claimed))
                for claimed in (0, 1))
            assert rejoiner._certificate_valid(
                CheckpointReply(replica=0, checkpoint_seq=20,
                                state_digest=state_digest, last_executed=20,
                                view=0, snapshot={}, certificate=honest_votes))

    def test_schedule_counts_static_faults_against_f(self):
        """A scheduled crash on top of a statically crashed replica exceeds f."""
        config = recovery_config("flexi-bft").with_updates(
            faults=FaultConfig(crashed=(1,)))
        schedule = FaultSchedule((crash_at(2, ms(10)), restart_at(2, ms(20))))
        with pytest.raises(ConfigurationError):
            Deployment(config, fault_schedule=schedule)

    def test_single_peer_cannot_inflate_view_or_target(self):
        from repro.protocols.messages import CheckpointReply
        from repro.recovery import StateTransferSession

        session = StateTransferSession(f=1, started_at=0.0)
        liar = CheckpointReply(replica=0, checkpoint_seq=0, state_digest=b"",
                               last_executed=10**9, view=10**9)
        session.add_reply(0, liar, certified=False)
        assert session.target_view == 0
        assert not session.caught_up(0)  # no f+1 target yet -> keep going
        honest = CheckpointReply(replica=1, checkpoint_seq=0, state_digest=b"",
                                 last_executed=40, view=3)
        session.add_reply(1, honest, certified=False)
        # The adopted values are what f + 1 repliers vouch for, i.e. the
        # honest replica's, not the liar's.
        assert session.target_view == 3
        assert session.target_seq == 40
        assert session.caught_up(40)


class TestScheduleValidationAndSharding:
    def test_schedule_rejects_more_than_f_down(self):
        schedule = FaultSchedule((crash_at(1, ms(10)), crash_at(2, ms(20))))
        with pytest.raises(ConfigurationError):
            Deployment(recovery_config("flexi-bft"), fault_schedule=schedule)

    def test_sharded_schedules_address_replicas_per_group(self):
        base = recovery_config("flexi-bft", clients=8)
        schedules = {1: FaultSchedule((crash_at(3, ms(200)),
                                       restart_at(3, ms(500))))}
        spec = DeploymentSpec(base, num_shards=2, num_clients=16,
                              fault_schedules=schedules)
        with spec.build() as deployment:
            deployment.start_clients()
            deployment.sim.run(until=seconds(1.5))
            untouched = deployment.group(0).replica(3)
            rejoined = deployment.group(1).replica(3)
            assert untouched.stats.recoveries_started == 0
            assert rejoined.stats.recoveries_completed == 1
            assert all(g.safety.consensus_safe for g in deployment.groups)

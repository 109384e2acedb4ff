"""Attack scenarios from Sections 5, 6 and 7 of the paper.

Three executable demonstrations, each returning a structured report:

* :func:`run_responsiveness_attack` — Section 5 / Figure 2.  A byzantine
  primary plus temporary message delays leave a client unable to gather
  ``f + 1`` matching replies in MinBFT (and the other 2f+1 trust-bft
  protocols), even though the transaction commits at an honest replica, and
  the view change cannot gather enough votes to recover.  The same scenario
  against Pbft (3f+1) recovers and the client completes.
* :func:`run_rollback_attack` — Section 6.  A byzantine primary rolls back its
  volatile trusted counter and equivocates, making two honest replicas execute
  different transactions at the same sequence number.  With persistent
  hardware the rollback is impossible and safety holds.
* :func:`run_restart_rollback_attack` — the restart-based variant of the same
  attack: instead of snapshotting the component, the byzantine host simply
  power-cycles its replica.  A volatile counter comes back at zero (the
  restart *is* the rollback), a persistent one resumes and the equivocation
  lands on an unused sequence number.
* :func:`run_sequentiality_demo` — Section 7.  A trusted counter refuses
  out-of-order bindings, which is why trust-bft consensus cannot run two
  instances concurrently; the accompanying throughput bound
  ``batch / (phases × RTT)`` quantifies the cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..common.config import (
    DeploymentConfig,
    ExperimentConfig,
    FaultConfig,
    ProtocolConfig,
    ROLLBACK_PROTECTED_COUNTER,
    SGX_ENCLAVE_COUNTER,
    SGX_PERSISTENT_COUNTER,
    TrustedHardwareSpec,
    WorkloadConfig,
)
from ..common.errors import TrustedComponentError
from ..common.types import MICROS_PER_SECOND, Micros, ms, seconds
from ..crypto.digest import digest
from ..execution.state_machine import Operation
from ..net.network import MessageRule
from ..protocols.messages import (
    ClientRequest,
    Prepare,
    RequestBatch,
    Response,
)
from ..common.types import RequestId
from ..runtime.deployment import Deployment


# --------------------------------------------------------------------------
# Section 5: restricted responsiveness
# --------------------------------------------------------------------------
@dataclass
class ResponsivenessReport:
    """Outcome of the Section 5 scenario for one protocol."""

    protocol: str
    f: int
    n: int
    client_completed: bool
    responses_at_client: int
    required_responses: int
    honest_replicas_executed: int
    view_changes_completed: int
    view_change_votes: int
    sim_time_s: float

    @property
    def responsive(self) -> bool:
        """Did the client get an answer it can validate?"""
        return self.client_completed


def _attack_sets(n: int, f: int) -> tuple[set[int], int, set[int]]:
    """Split replicas into byzantine set F, the isolated honest replica r, and D.

    The primary (replica 0) is byzantine; the remaining byzantine replicas are
    taken from the highest identifiers so that the primary of the next view is
    honest (which is what lets Pbft recover via a view change).
    """
    byzantine = {0} | set(range(n - (f - 1), n)) if f > 1 else {0}
    r = 1
    d = {i for i in range(n) if i not in byzantine and i != r}
    return byzantine, r, d


def run_responsiveness_attack(protocol: str = "minbft", f: int = 2,
                              duration_s: float = 4.0,
                              request_timeout_ms: float = 50.0) -> ResponsivenessReport:
    """Run the Figure 2 scenario against ``protocol`` and report the outcome."""
    from ..protocols.registry import get_protocol

    n = get_protocol(protocol).replicas(f)
    byzantine, r, d = _attack_sets(n, f)
    config = DeploymentConfig(
        protocol=protocol, f=f,
        workload=WorkloadConfig(num_clients=1, records=64,
                                requests_per_client_message=1),
        protocol_config=ProtocolConfig(
            batch_size=1, checkpoint_interval=10_000,
            request_timeout_us=ms(request_timeout_ms),
            view_change_timeout_us=ms(request_timeout_ms),
            batch_timeout_us=ms(0.5)),
        faults=FaultConfig(byzantine=tuple(sorted(byzantine))),
        experiment=ExperimentConfig(seed=42),
    )
    with Deployment(config) as deployment:
        d_names = {deployment.replica_names[i] for i in d}
        client_name = deployment.client_names[0]

        # Byzantine replicas never talk to D and never answer the client.
        def byzantine_filter(destination: str, message: object) -> bool:
            if destination in d_names:
                return False
            if destination == client_name:
                return False
            return True

        for replica_id in byzantine:
            deployment.replica(replica_id).make_byzantine(byzantine_filter)

        # Prepare messages from the isolated honest replica r towards D are
        # delayed beyond the experiment horizon (partial synchrony at work).
        deployment.network.add_rule(MessageRule(
            name="delay-r-to-D",
            sources=frozenset({deployment.replica_names[r]}),
            destinations=frozenset(d_names),
            matcher=lambda payload: isinstance(payload, Prepare),
            extra_delay_us=seconds(10 * duration_s),
        ))

        deployment.start_clients()
        deployment.sim.run(until=seconds(duration_s))

        client = deployment.clients[0]
        honest_executed = sum(
            1 for replica in deployment.honest_replicas()
            if replica.ledger.last_executed >= 1)
        view_changes_completed = max(
            replica.stats.view_changes_completed
            for replica in deployment.honest_replicas())
        vote_counts = [len(votes)
                       for replica in deployment.honest_replicas()
                       for votes in replica.view_change_votes.values()]
        required = deployment.spec.reply_policy(n, f).fast_quorum
        return ResponsivenessReport(
            protocol=protocol, f=f, n=n,
            client_completed=client.stats.completed >= 1,
            responses_at_client=client.responses_for_outstanding()
            if client.stats.completed == 0 else required,
            required_responses=required,
            honest_replicas_executed=honest_executed,
            view_changes_completed=view_changes_completed,
            view_change_votes=max(vote_counts, default=0),
            sim_time_s=deployment.sim.now / MICROS_PER_SECOND,
        )


def compare_responsiveness(f: int = 2, duration_s: float = 4.0) -> dict[str, ResponsivenessReport]:
    """Run the Section 5 scenario against MinBFT and Pbft (Figure 2)."""
    return {
        "minbft": run_responsiveness_attack("minbft", f=f, duration_s=duration_s),
        "pbft": run_responsiveness_attack("pbft", f=f, duration_s=duration_s),
    }


# --------------------------------------------------------------------------
# Section 6: safety under rollback
# --------------------------------------------------------------------------
@dataclass
class RollbackReport:
    """Outcome of the Section 6 rollback scenario (either variant)."""

    protocol: str
    hardware: str
    rollback_succeeded: bool
    safety_violated: bool
    conflicting_digests_at_seq1: int
    responses_for_first: int
    responses_for_second: int
    violations: list[str] = field(default_factory=list)
    #: how the adversary rewound the component: ``host-snapshot`` (the
    #: original Section 6 mechanism) or ``restart`` (power-cycling the
    #: replica so a volatile counter resets).
    attack: str = "host-snapshot"


def _client_request(name: str, number: int, key: str, value: str) -> ClientRequest:
    return ClientRequest(
        request_id=RequestId(client=name, number=number),
        operations=(Operation(action="write", key=key, value=value),))


def run_rollback_attack(hardware: TrustedHardwareSpec = SGX_ENCLAVE_COUNTER,
                        protocol: str = "minbft") -> RollbackReport:
    """Byzantine primary rolls back its trusted counter and equivocates.

    With volatile hardware (the default SGX enclave counter) the attack
    produces a consensus-safety violation: two honest replicas execute
    different transactions at sequence number 1.  With persistent hardware the
    rollback raises and the attack fails.
    """
    f = 1
    config = DeploymentConfig(
        protocol=protocol, f=f, trusted_hardware=hardware,
        workload=WorkloadConfig(num_clients=1, records=16),
        protocol_config=ProtocolConfig(batch_size=1, checkpoint_interval=10_000),
        faults=FaultConfig(byzantine=(0,)),
        experiment=ExperimentConfig(seed=7),
    )
    with Deployment(config) as deployment:
        n = deployment.n
        primary = deployment.primary
        replica_g = deployment.replica(1)   # the honest replica the primary serves first
        replica_d = deployment.replica(2)   # the honest replica targeted after rollback
        client_name = deployment.client_names[0]

        # Phase 1: the primary only talks to G (and itself); D hears nothing.
        def phase1_filter(destination: str, message: object) -> bool:
            return destination not in {replica_d.name}

        primary.make_byzantine(phase1_filter)

        request_t = _client_request(client_name, 1, "account", "transfer-to-alice")
        batch_t = RequestBatch(requests=(request_t,))
        pre_attack_state = primary.trusted.snapshot()
        primary.propose_batch(batch_t)
        deployment.sim.run(until=ms(200))

        responses_first = sum(
            1 for replica in (primary, replica_g)
            if replica.reply_cache.get(request_t.request_id) is not None)

        # Phase 2: roll back the trusted component and equivocate towards D.
        rollback_succeeded = True
        try:
            primary.trusted.rollback(pre_attack_state)
        except TrustedComponentError:
            rollback_succeeded = False

        responses_second = 0
        if rollback_succeeded:
            def phase2_filter(destination: str, message: object) -> bool:
                return destination not in {replica_g.name}

            primary.outbound_filter = phase2_filter
            request_t2 = _client_request(client_name, 2, "account", "transfer-to-bob")
            batch_t2 = RequestBatch(requests=(request_t2,))
            primary.propose_batch(batch_t2)
            deployment.sim.run(until=ms(400))
            # The byzantine primary forges a matching reply so the second client
            # observation also reaches f + 1 identical responses (it already
            # "executed" T at seq 1, but nothing stops it from lying about T').
            responses_second = (
                (1 if replica_d.reply_cache.get(request_t2.request_id) is not None else 0)
                + 1)

        digests = deployment.safety.distinct_digests_at(1)
        violations = [v.description for v in deployment.safety.violations]
        return RollbackReport(
            protocol=protocol, hardware=hardware.name,
            rollback_succeeded=rollback_succeeded,
            safety_violated=not deployment.safety.consensus_safe,
            conflicting_digests_at_seq1=len(digests),
            responses_for_first=responses_first,
            responses_for_second=responses_second,
            violations=violations,
        )


def compare_rollback_hardware(protocol: str = "minbft") -> dict[str, RollbackReport]:
    """Run the rollback attack on volatile and persistent hardware."""
    return {
        "volatile": run_rollback_attack(SGX_ENCLAVE_COUNTER, protocol),
        "persistent": run_rollback_attack(SGX_PERSISTENT_COUNTER, protocol),
    }


def run_restart_rollback_attack(hardware: TrustedHardwareSpec = SGX_ENCLAVE_COUNTER,
                                protocol: str = "minbft") -> RollbackReport:
    """Restart-based rollback: the byzantine host power-cycles its replica.

    Phase 1 is the same as :func:`run_rollback_attack`: the byzantine primary
    commits ``T`` at sequence 1 with honest replica G only.  Phase 2 replaces
    the explicit counter snapshot with a crash/restart of the whole replica —
    the host wipes its own disk and rebuilds the process.  What the trusted
    component remembers across that restart is exactly the Section 6
    dichotomy: a volatile counter restarts at zero, so the primary can bind a
    conflicting ``T'`` to sequence 1 and serve it to honest replica D
    (consensus-safety violation, flagged by the safety monitor); a persistent
    counter resumes, ``T'`` lands on the *next* sequence number, and D never
    executes it out of order.
    """
    f = 1
    config = DeploymentConfig(
        protocol=protocol, f=f, trusted_hardware=hardware,
        workload=WorkloadConfig(num_clients=1, records=16),
        protocol_config=ProtocolConfig(batch_size=1, checkpoint_interval=10_000),
        faults=FaultConfig(byzantine=(0,)),
        experiment=ExperimentConfig(seed=7),
    )
    with Deployment(config) as deployment:
        primary = deployment.primary
        replica_g = deployment.replica(1)
        replica_d = deployment.replica(2)
        client_name = deployment.client_names[0]

        # Phase 1: the primary only talks to G (and itself); D hears nothing.
        def phase1_filter(destination: str, message: object) -> bool:
            return destination not in {replica_d.name}

        primary.make_byzantine(phase1_filter)
        request_t = _client_request(client_name, 1, "account", "transfer-to-alice")
        primary.propose_batch(RequestBatch(requests=(request_t,)))
        deployment.sim.run(until=ms(200))

        responses_first = sum(
            1 for replica in (primary, replica_g)
            if replica.reply_cache.get(request_t.request_id) is not None)

        # Phase 2: power-cycle the primary.  No recovery protocol runs — this
        # host wants amnesia, not a rejoin — and the disk is discarded too.
        primary = deployment.restart_replica(0, recover=False, wipe_store=True)
        counter_reset = (not primary.trusted.counters.snapshot()
                         and not primary.trusted.flexi.snapshot())

        def phase2_filter(destination: str, message: object) -> bool:
            return destination not in {replica_g.name}

        primary.make_byzantine(phase2_filter)
        request_t2 = _client_request(client_name, 2, "account", "transfer-to-bob")
        primary.propose_batch(RequestBatch(requests=(request_t2,)))
        deployment.sim.run(until=ms(400))
        # As in the snapshot variant, the byzantine primary forges its own
        # matching reply towards the client.
        responses_second = (
            (1 if replica_d.reply_cache.get(request_t2.request_id) is not None else 0)
            + 1)

        digests = deployment.safety.distinct_digests_at(1)
        violations = [v.description for v in deployment.safety.violations]
        return RollbackReport(
            protocol=protocol, hardware=hardware.name,
            rollback_succeeded=counter_reset,
            safety_violated=not deployment.safety.consensus_safe,
            conflicting_digests_at_seq1=len(digests),
            responses_for_first=responses_first,
            responses_for_second=responses_second,
            violations=violations,
            attack="restart",
        )


def compare_restart_rollback_hardware(protocol: str = "minbft") -> dict[str, RollbackReport]:
    """Run the restart-rollback variant on volatile and persistent hardware.

    Uses :data:`~repro.common.config.ROLLBACK_PROTECTED_COUNTER` as the
    persistent level so both runs share the same access latency and only the
    persistence bit differs.
    """
    return {
        "volatile": run_restart_rollback_attack(SGX_ENCLAVE_COUNTER, protocol),
        "persistent": run_restart_rollback_attack(ROLLBACK_PROTECTED_COUNTER, protocol),
    }


# --------------------------------------------------------------------------
# Section 7: lack of parallelism
# --------------------------------------------------------------------------
@dataclass
class SequentialityReport:
    """Outcome of the Section 7 demonstration."""

    out_of_order_rejected: bool
    stalled_seq: int
    sequential_bound_tx_s: float
    parallel_estimate_tx_s: float

    @property
    def parallel_speedup(self) -> float:
        """How much faster the parallel estimate is than the sequential bound."""
        if self.sequential_bound_tx_s == 0:
            return float("inf")
        return self.parallel_estimate_tx_s / self.sequential_bound_tx_s


def sequential_throughput_bound(batch_size: int, phases: int,
                                rtt_us: Micros) -> float:
    """The Section 7 bound: ``batch size / (number of phases × RTT)``."""
    if rtt_us <= 0:
        return float("inf")
    return batch_size * MICROS_PER_SECOND / (phases * rtt_us)


def run_sequentiality_demo(batch_size: int = 100, phases: int = 2,
                           rtt_us: Micros = ms(1.0),
                           outstanding: int = 32) -> SequentialityReport:
    """Show the out-of-order rejection and quantify the throughput bound.

    The first part reproduces the MinBFT argument: a replica that already
    bound transaction ``T_j`` (sequence 2) to its counter cannot later bind
    ``T_i`` (sequence 1); the trusted component refuses and consensus for
    ``T_i`` stalls.  The second part evaluates the throughput bound formula
    for a sequential protocol versus a parallel protocol that keeps
    ``outstanding`` instances in flight.
    """
    from ..crypto.keystore import KeyStore
    from ..trusted.counter import TrustedCounterSet
    from ..common.errors import CounterRegression

    keystore = KeyStore(seed=3)
    counters = TrustedCounterSet(key=keystore.register("tc/demo"))
    digest_j = digest("T_j")
    digest_i = digest("T_i")
    counters.append(0, 2, digest_j)          # T_j arrives (and binds) first
    rejected = False
    try:
        counters.append(0, 1, digest_i)      # the late T_i cannot be bound
    except CounterRegression:
        rejected = True

    sequential = sequential_throughput_bound(batch_size, phases, rtt_us)
    parallel = sequential * outstanding
    return SequentialityReport(
        out_of_order_rejected=rejected,
        stalled_seq=1,
        sequential_bound_tx_s=sequential,
        parallel_estimate_tx_s=parallel,
    )

"""The paper's Section 5–7 claims as table rows.

Each builder runs one attack against one protocol and returns a plain row,
the way every ``figure*`` experiment does; :func:`claims_table` collects the
rows the ``claims`` determinism scenario pins:

* :func:`responsiveness_row` — Section 5 / Figure 2.  A byzantine primary
  plus temporary message delays leave a client of the 2f+1 trust-bft
  protocols unable to gather its reply quorum, even though the transaction
  commits at an honest replica, and the view change cannot gather enough
  votes to recover.  Pbft (3f+1) recovers and the client completes.
* :func:`rollback_row` — Section 6.  A byzantine primary rewinds its trusted
  component and equivocates, by restoring a host snapshot of it or by
  power-cycling its replica.  On volatile hardware two honest replicas
  execute different transactions at the same sequence number; persistent
  hardware refuses the snapshot or resumes after the restart.
* :func:`sequentiality_row` — Section 7.  A trusted counter refuses
  out-of-order bindings, which is why trust-bft consensus cannot run two
  instances concurrently; :func:`sequential_throughput_bound`
  (``batch / (phases × RTT)``) quantifies the cost.
"""

from __future__ import annotations

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
from ..common.errors import ConfigurationError, CounterRegression, TrustedComponentError
from ..common.types import MICROS_PER_SECOND, Micros, RequestId, ms, seconds
from ..crypto.digest import digest
from ..crypto.keystore import KeyStore
from ..execution.state_machine import Operation
from ..net.network import MessageRule
from ..protocols.messages import ClientRequest, Prepare, RequestBatch
from ..protocols.registry import get_protocol
from ..runtime.deployment import Deployment
from ..trusted.counter import TrustedCounterSet

#: protocols the table runs through the Section 5 attack, at f = 2.
RESPONSIVENESS_PROTOCOLS = ("pbft", "minbft", "minzz", "pbft-ea",
                            "flexi-bft", "flexi-zz")
#: protocols the table runs through every Section 6 variant, at f = 1.
ROLLBACK_PROTOCOLS = ("minbft", "flexi-bft", "flexi-zz")
#: the Section 6 variants: how the component is rewound, and on what.
#: The restart pairs run at the same access latency, so only the
#: persistence bit differs.
ROLLBACK_VARIANTS = (
    ("host-snapshot", SGX_ENCLAVE_COUNTER),
    ("host-snapshot", SGX_PERSISTENT_COUNTER),
    ("restart", SGX_ENCLAVE_COUNTER),
    ("restart", ROLLBACK_PROTECTED_COUNTER),
)

#: simulated length of the Section 5 run; r's Prepares to D arrive after it.
_RESPONSIVENESS_S = 4.0


# --------------------------------------------------------------------------
# Section 5: restricted responsiveness
# --------------------------------------------------------------------------
def responsiveness_row(protocol: str, f: int = 2) -> dict:
    """Run the Figure 2 scenario against ``protocol``: did the client answer?"""
    n = get_protocol(protocol).replicas(f)
    # The byzantine set F is the primary plus the f - 1 highest identifiers,
    # so the next view's primary is honest (which is what lets Pbft recover
    # via a view change); replica 1 is the isolated honest replica r, and
    # the other honest replicas are D.
    byzantine = {0, *range(n - f + 1, n)}
    d = set(range(2, n)) - byzantine
    config = DeploymentConfig(
        protocol=protocol, f=f,
        workload=WorkloadConfig(num_clients=1, records=64,
                                requests_per_client_message=1),
        protocol_config=ProtocolConfig(
            batch_size=1, checkpoint_interval=10_000,
            request_timeout_us=ms(50), view_change_timeout_us=ms(50),
            batch_timeout_us=ms(0.5)),
        faults=FaultConfig(byzantine=tuple(sorted(byzantine))),
        experiment=ExperimentConfig(seed=42),
    )
    with Deployment(config) as deployment:
        d_names = {deployment.replica_names[i] for i in d}
        # Byzantine replicas never talk to D and never answer the client.
        silenced = d_names | {deployment.client_names[0]}
        for replica_id in byzantine:
            deployment.replica(replica_id).make_byzantine(
                lambda destination, message: destination not in silenced)
        # Prepare messages from the isolated honest replica r towards D are
        # delayed beyond the experiment horizon (partial synchrony at work).
        deployment.network.add_rule(MessageRule(
            name="delay-r-to-D",
            sources=frozenset({deployment.replica_names[1]}),
            destinations=frozenset(d_names),
            matcher=lambda payload: isinstance(payload, Prepare),
            extra_delay_us=seconds(10 * _RESPONSIVENESS_S),
        ))
        deployment.start_clients()
        deployment.sim.run(until=seconds(_RESPONSIVENESS_S))

        client = deployment.clients[0]
        honest = deployment.honest_replicas()
        completed = client.stats.completed >= 1
        required = deployment.spec.reply_policy(n, f).fast_quorum
        return {
            "section": 5, "attack": "delayed-prepare", "protocol": protocol,
            "f": f, "n": n,
            "client_completed": completed,
            "responses_at_client": (required if completed
                                    else client.responses_for_outstanding()),
            "required_responses": required,
            "honest_replicas_executed": sum(
                1 for replica in honest if replica.ledger.last_executed >= 1),
            "view_changes_completed": max(
                replica.stats.view_changes_completed for replica in honest),
            "view_change_votes": max(
                (len(votes) for replica in honest
                 for votes in replica.view_change_votes.values()), default=0),
            "sim_time_s": deployment.sim.now / MICROS_PER_SECOND,
        }


# --------------------------------------------------------------------------
# Section 6: safety under rollback
# --------------------------------------------------------------------------
def _write(client: str, number: int, value: str) -> ClientRequest:
    return ClientRequest(
        request_id=RequestId(client=client, number=number),
        operations=(Operation(action="write", key="account", value=value),))


def rollback_row(hardware: TrustedHardwareSpec, protocol: str,
                 attack: str) -> dict:
    """A byzantine primary rewinds its trusted component and equivocates.

    The primary (replica 0) first binds ``T`` to sequence 1 and serves it to
    honest replica G (1) only.  Then it rewinds its component, which is the
    one difference between the two attacks:

    * ``host-snapshot`` restores a copy of the component's state the host
      took before ``T``; persistent hardware refuses, and the attack ends.
    * ``restart`` power-cycles the replica with its disk wiped and no
      recovery (the host wants amnesia, not a rejoin); a volatile counter
      comes back at zero, a persistent one resumes.

    Finally it binds a conflicting ``T'`` and serves it to honest replica D
    (2) only.  Where the counter was rewound ``T'`` lands on sequence 1 again
    and the safety monitor sees two digests there.
    """
    if attack not in ("host-snapshot", "restart"):
        raise ConfigurationError(f"unknown rollback attack {attack!r}")
    config = DeploymentConfig(
        protocol=protocol, f=1, trusted_hardware=hardware,
        workload=WorkloadConfig(num_clients=1, records=16),
        protocol_config=ProtocolConfig(batch_size=1, checkpoint_interval=10_000),
        faults=FaultConfig(byzantine=(0,)),
        experiment=ExperimentConfig(seed=7),
    )
    with Deployment(config) as deployment:
        primary = deployment.primary
        replica_g, replica_d = deployment.replica(1), deployment.replica(2)
        client = deployment.client_names[0]

        request_t = _write(client, 1, "transfer-to-alice")
        saved = primary.trusted.snapshot()
        primary.make_byzantine(
            lambda destination, message: destination != replica_d.name)
        primary.propose_batch(RequestBatch(requests=(request_t,)))
        deployment.sim.run(until=ms(200))
        responses_first = sum(
            1 for replica in (primary, replica_g)
            if replica.reply_cache.get(request_t.request_id) is not None)

        if attack == "restart":
            primary = deployment.restart_replica(0, recover=False,
                                                 wipe_store=True)
            rewound = not primary.trusted.counters.snapshot()
            equivocates = True
        else:
            try:
                primary.trusted.rollback(saved)
                rewound = equivocates = True
            except TrustedComponentError:
                rewound = equivocates = False

        responses_second = 0
        if equivocates:
            request_t2 = _write(client, 2, "transfer-to-bob")
            primary.make_byzantine(
                lambda destination, message: destination != replica_g.name)
            primary.propose_batch(RequestBatch(requests=(request_t2,)))
            deployment.sim.run(until=ms(400))
            # The byzantine primary forges its own matching reply to T' too:
            # it "executed" T at seq 1, but nothing stops it from lying.
            responses_second = 1 + int(
                replica_d.reply_cache.get(request_t2.request_id) is not None)

        safety = deployment.safety
        return {
            "section": 6, "attack": attack, "protocol": protocol,
            "hardware": hardware.name,
            "rollback_succeeded": rewound,
            "safety_violated": not safety.consensus_safe,
            "conflicting_digests_at_seq1": len(safety.distinct_digests_at(1)),
            "responses_for_first": responses_first,
            "responses_for_second": responses_second,
            "violations": len(safety.violations),
        }


# --------------------------------------------------------------------------
# Section 7: lack of parallelism
# --------------------------------------------------------------------------
def sequential_throughput_bound(batch_size: int, phases: int,
                                rtt_us: Micros) -> float:
    """The Section 7 bound: ``batch size / (number of phases × RTT)``."""
    if rtt_us <= 0:
        return float("inf")
    return batch_size * MICROS_PER_SECOND / (phases * rtt_us)


def sequentiality_row() -> dict:
    """Show the out-of-order rejection and quantify the throughput bound.

    The MinBFT argument: a replica that already bound ``T_j`` (sequence 2) to
    its counter cannot later bind ``T_i`` (sequence 1); the trusted component
    refuses and consensus for ``T_i`` stalls.  The bound is evaluated for a
    sequential protocol (batch 100, two phases, 1 ms RTT) against a parallel
    one keeping 32 instances in flight.
    """
    counters = TrustedCounterSet(key=KeyStore(seed=3).register("tc/demo"))
    counters.append(0, 2, digest("T_j"))        # T_j arrives (and binds) first
    try:
        counters.append(0, 1, digest("T_i"))    # the late T_i cannot be bound
        rejected = False
    except CounterRegression:
        rejected = True
    sequential = sequential_throughput_bound(100, 2, ms(1.0))
    return {
        "section": 7, "attack": "out-of-order-bind", "protocol": "minbft",
        "out_of_order_rejected": rejected,
        "stalled_seq": 1,
        "sequential_bound_tx_s": sequential,
        "parallel_estimate_tx_s": sequential * 32,
    }


def claims_table() -> list[dict]:
    """Every claim row: Section 5 at f = 2, Section 6 at f = 1, Section 7."""
    return ([responsiveness_row(protocol)
             for protocol in RESPONSIVENESS_PROTOCOLS]
            + [rollback_row(hardware, protocol, attack)
               for protocol in ROLLBACK_PROTOCOLS
               for attack, hardware in ROLLBACK_VARIANTS]
            + [sequentiality_row()])

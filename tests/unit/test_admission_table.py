"""One table says how a replica admits each message class.

:data:`repro.protocols.base.ADMISSION` is the paper's per-message cost table
(Section 9.4) and the replica's dispatch table in one: for every message
class a replica is sent, the handler, the verification CPU charged before
it, whether the low watermark and the lag trigger apply, and whether a
recovering replica may send it.  These tests hold the table to the
``isinstance`` chains it replaced — every cost the same float, bit for bit,
and the same classes held back during recovery — and pin what the table
does with a class it does not list.
"""

from __future__ import annotations

import struct
from types import SimpleNamespace

import pytest

from repro.common.config import (
    CryptoCostModel,
    DeploymentConfig,
    ExperimentConfig,
    ProtocolConfig,
    WorkloadConfig,
)
from repro.common.types import RequestId, ms
from repro.crypto.signatures import Signature
from repro.execution.state_machine import Operation
from repro.net.wire import WIRE_REGISTRY, ensure_default_registrations
from repro.protocols.base import ADMISSION, CRYPTO_COSTS, BaseReplica
from repro.protocols.family import FIGURE5_BARS
from repro.protocols.messages import (
    Checkpoint,
    CheckpointReply,
    CheckpointRequest,
    ClientRequest,
    Commit,
    CommitAck,
    CommitCertificate,
    LogFill,
    LogFillEntry,
    NewView,
    PrePrepare,
    Prepare,
    PreparedProof,
    RequestBatch,
    ResendRequest,
    Response,
    ViewChange,
)
from repro.protocols.registry import PROTOCOLS
from repro.runtime import DeploymentSpec
from repro.trusted.attestation import Attestation


# ------------------------------------------------- the replaced chains
def reference_cost(c, payload) -> float:
    """``BaseReplica.inbound_verification_cost`` as the isinstance chain
    computed it before the table, kept verbatim as the oracle."""
    cost = c.message_overhead_us + c.mac_verify_us
    if isinstance(payload, ClientRequest):
        cost += c.ds_verify_us
    elif isinstance(payload, ResendRequest):
        cost += c.ds_verify_us
    elif isinstance(payload, PrePrepare):
        cost += c.ds_verify_us + c.hash_us * max(1, len(payload.batch))
        if payload.attestation is not None:
            cost += c.attestation_verify_us
    elif isinstance(payload, (Prepare, Commit)):
        cost += c.ds_verify_us
        if payload.attestation is not None:
            cost += c.attestation_verify_us
    elif isinstance(payload, Checkpoint):
        cost += c.ds_verify_us
    elif isinstance(payload, ViewChange):
        cost += c.ds_verify_us * (1 + len(payload.prepared))
    elif isinstance(payload, NewView):
        cost += c.ds_verify_us * (1 + len(payload.proposals))
    elif isinstance(payload, CommitCertificate):
        cost += c.ds_verify_us * max(1, len(payload.responders))
    elif isinstance(payload, CommitAck):
        cost += c.ds_verify_us
    elif isinstance(payload, CheckpointRequest):
        cost += c.ds_verify_us
    elif isinstance(payload, CheckpointReply):
        cost += (c.ds_verify_us * (1 + len(payload.certificate))
                 + c.hash_us * 4)
    elif isinstance(payload, LogFill):
        cost += c.ds_verify_us + c.hash_us * max(1, len(payload.entries))
    return cost


#: the classes a recovering replica held back before the table.
REFERENCE_HELD_WHILE_RECOVERING = {PrePrepare, Prepare, Commit, Checkpoint,
                                   ViewChange, NewView, CommitAck}

#: what the dispatch chain routed each class to before the table.
REFERENCE_HANDLERS = {
    ClientRequest: "on_client_request", ResendRequest: "on_resend_request",
    PrePrepare: "on_preprepare", Prepare: "on_prepare", Commit: "on_commit",
    Checkpoint: "on_checkpoint", ViewChange: "on_view_change",
    NewView: "on_new_view", CommitCertificate: "on_commit_certificate",
    CheckpointRequest: "on_checkpoint_request",
    CheckpointReply: "on_checkpoint_reply", LogFill: "on_log_fill",
}

#: wire classes no correct peer sends to a replica: a replica's replies to
#: clients, and the values that only ride inside messages.
NEVER_SENT_TO_A_REPLICA = {
    "Response", "RequestId", "Operation", "OperationResult", "Signature",
    "Mac", "Attestation", "Envelope", "RequestBatch", "PreparedProof",
    "LogFillEntry",
}


# ------------------------------------------------------------- samples
_SIG = Signature("r0", b"\x01" * 32)
_ATT = Attestation("tc-r0", 0, 7, b"\x02" * 32, _SIG)


def _request(number: int) -> ClientRequest:
    return ClientRequest(RequestId("c0", number),
                         (Operation("write", f"k{number}", "v"),), _SIG)


def _batch(size: int) -> RequestBatch:
    return RequestBatch(tuple(_request(i) for i in range(size)))


def _preprepare(size: int, attestation=None) -> PrePrepare:
    return PrePrepare(0, 5, _batch(size), b"\x03" * 32, 0, attestation, _SIG)


def samples() -> list:
    """An instance of every admitted class, each shape the costs read."""
    out: list = [_request(1), ResendRequest(_request(2))]
    for size in (0, 1, 10):
        for attestation in (None, _ATT):
            out.append(_preprepare(size, attestation))
    for attestation in (None, _ATT):
        out.append(Prepare(0, 5, b"\x03" * 32, 1, attestation, _SIG))
        out.append(Commit(0, 5, b"\x03" * 32, 1, attestation, _SIG))
        out.append(Checkpoint(8, b"\x04" * 32, 1, attestation, _SIG))
    proofs = tuple(PreparedProof(0, seq, _batch(2), b"\x05" * 32, _ATT, 3)
                   for seq in (6, 7, 8))
    out += [ViewChange(1, 2, 4, (), _SIG), ViewChange(1, 2, 4, proofs, _SIG)]
    out += [NewView(1, 1, (0, 2, 3), (), _SIG),
            NewView(1, 1, (0, 2, 3),
                    (_preprepare(0), _preprepare(3, _ATT)), _SIG)]
    for responders in ((), (0,), (0, 1, 2)):
        out.append(CommitCertificate(RequestId("c0", 3), 5, 0, b"\x06" * 32,
                                     responders))
    out.append(CommitAck(RequestId("c0", 3), 5, 0, 1, b"\x06" * 32, _SIG))
    out.append(CheckpointRequest(2, 4, 1, _SIG))
    votes = tuple(Checkpoint(8, b"\x04" * 32, r, None, _SIG) for r in (0, 1))
    out += [CheckpointReply(1, 8, b"\x04" * 32, 9, 0, None, (), _SIG),
            CheckpointReply(1, 8, b"\x04" * 32, 9, 0, None, votes, _SIG)]
    for count in (0, 1, 10):
        entries = tuple(LogFillEntry(seq, 0, _batch(1), b"\x07" * 32)
                        for seq in range(count))
        out.append(LogFill(1, entries, _SIG))
    return out


#: prices with no common binary factor, so a term summed in another order
#: shows in the low bits.
_AWKWARD_COSTS = CryptoCostModel(
    mac_generate_us=0.3, mac_verify_us=0.1, ds_sign_us=44.7,
    ds_verify_us=119.3, hash_us=0.7, attestation_verify_us=124.9,
    execute_op_us=1.3, message_overhead_us=1.0 / 3.0)


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


@pytest.mark.parametrize("costs", [CRYPTO_COSTS, _AWKWARD_COSTS],
                         ids=["default", "awkward"])
def test_every_cost_is_the_chains_float_bit_for_bit(costs):
    replica = SimpleNamespace(costs=costs)
    cases = samples()
    assert {type(m) for m in cases} == set(ADMISSION)
    for message in cases:
        got = BaseReplica.inbound_verification_cost(replica, message)
        want = reference_cost(costs, message)
        assert _bits(got) == _bits(want), (type(message).__name__, got, want)


def test_an_unlisted_class_costs_the_overhead_and_mac_only():
    replica = SimpleNamespace(costs=_AWKWARD_COSTS)
    response = Response(RequestId("c0", 1), 5, 0, 1, None, b"\x06" * 32)
    for message in (response, "not a message"):
        assert _bits(BaseReplica.inbound_verification_cost(replica, message)) \
            == _bits(reference_cost(_AWKWARD_COSTS, message))


def test_the_table_routes_and_holds_back_what_the_chains_did():
    assert {cls: a.handler for cls, a in ADMISSION.items()
            if a.handler is not None} == REFERENCE_HANDLERS
    assert {cls for cls, a in ADMISSION.items()
            if not a.sent_while_recovering} == REFERENCE_HELD_WHILE_RECOVERING
    assert {cls for cls, a in ADMISSION.items() if a.phase} == {
        PrePrepare, Prepare, Commit}


def test_every_protocol_has_every_handler_the_table_names():
    for spec in PROTOCOLS.values():
        for admission in ADMISSION.values():
            if admission.handler is not None:
                assert callable(getattr(spec.replica_class, admission.handler))


def test_every_wire_class_is_admitted_or_never_sent_to_a_replica():
    ensure_default_registrations()
    registered = WIRE_REGISTRY.registered_classes()
    admitted = {cls.__name__ for cls in ADMISSION}
    assert admitted <= set(registered)
    assert not admitted & NEVER_SENT_TO_A_REPLICA
    assert set(registered) == admitted | NEVER_SENT_TO_A_REPLICA


# ------------------------------------------------------ live replicas
CHECKPOINT_INTERVAL = 4


def _config() -> DeploymentConfig:
    return DeploymentConfig(
        protocol="pbft", f=1,
        workload=WorkloadConfig(num_clients=8, records=100),
        protocol_config=ProtocolConfig(
            batch_size=2, worker_threads=4,
            checkpoint_interval=CHECKPOINT_INTERVAL,
            request_timeout_us=ms(60.0), view_change_timeout_us=ms(120.0)),
        experiment=ExperimentConfig(warmup_batches=1, measured_batches=8,
                                    seed=9))


def _record_calls(replica, names) -> list:
    calls: list = []
    for name in names:
        setattr(replica, name,
                lambda payload, source, name=name: calls.append(name))
    return calls


def test_dispatch_calls_the_handler_the_table_names():
    with DeploymentSpec(_config()).build() as deployment:
        replica = deployment.honest_replicas()[1]
        calls = _record_calls(replica, REFERENCE_HANDLERS.values())
        for message in samples():
            calls.clear()
            replica.dispatch(message, source="r0")
            handler = ADMISSION[type(message)].handler
            assert calls == ([] if handler is None else [handler])


def test_an_unlisted_class_reaches_no_handler():
    with DeploymentSpec(_config()).build() as deployment:
        replica = deployment.honest_replicas()[1]
        calls = _record_calls(replica, REFERENCE_HANDLERS.values())
        response = Response(RequestId("c0", 1), 5, 0, 1, None, b"\x06" * 32)
        for message in (response, object()):
            replica.dispatch(message, source="c0")
        assert calls == []


def test_a_grafted_replica_verifies_no_attestation_below_the_watermark():
    # Figure 5 bar (d): the primary attests in every phase, so every
    # replica pays one attestation check per Prepare it handles — but not
    # for a stale Prepare the low watermark drops before any handler.
    bar = next(bar for bar in FIGURE5_BARS
               if bar.primary_sa and bar.all_phases)
    with DeploymentSpec(_config(), trusted_usage=bar).build() as deployment:
        deployment.run_until_target(target_requests=60)
        replica = deployment.honest_replicas()[1]
        stable = replica.ledger.stable_checkpoint
        assert stable >= 2 * CHECKPOINT_INTERVAL
        assert replica.ledger.last_executed >= stable
        charges: list = []
        replica.charge = charges.append

        stale = Prepare(replica.view, stable - 1, b"\x03" * 32, 0)
        replica.dispatch(stale, source=replica.ctx.replica_names[0])
        assert charges == []

        # The control: a Prepare above the watermark is charged its check.
        fresh = Prepare(replica.view, replica.ledger.last_executed + 1,
                        b"\x03" * 32, 0)
        replica.dispatch(fresh, source=replica.ctx.replica_names[0])
        assert charges[:1] == [replica.costs.attestation_verify_us]

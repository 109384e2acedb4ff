"""Golden-vector tests pinning the wire format across refactors.

Every registered wire class has one committed frame under
``tests/golden/wire/<ClassName>.bin``, produced by :func:`golden_instances`.
The tests assert:

* encoding the golden instance reproduces the committed bytes exactly,
* decoding the committed bytes reproduces the golden instance,
* every class in the registry has a vector (so adding a message class
  without pinning its encoding fails CI),
* a frame of any other wire version is refused before its payload is
  read: the v2 ``Response`` under ``tests/golden/wire-v2/`` and the v3
  traced ``ClientRequest`` under ``tests/golden/wire-v3/``, whose trace
  block v4 dropped.

If a vector ever changes, the wire format changed: bump
:data:`repro.net.wire.WIRE_VERSION` and regenerate deliberately with::

    PYTHONPATH=src python tests/unit/test_wire_golden.py --regen
"""

from __future__ import annotations

import pathlib

import pytest

from repro.common.types import RequestId
from repro.crypto.digest import canonical_bytes
from repro.crypto.signatures import Mac, Signature
from repro.execution.state_machine import Operation, OperationResult
from repro.net.network import Envelope
from repro.net.wire import WIRE_REGISTRY, WireCodec, ensure_default_registrations
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
from repro.trusted.attestation import Attestation

GOLDEN_DIR = pathlib.Path(__file__).resolve().parents[1] / "golden" / "wire"


def _sig(signer: str) -> Signature:
    return Signature(signer=signer, value=bytes(range(32)))


def golden_instances() -> dict[str, object]:
    """One deterministic instance per registered wire class."""
    request_id = RequestId(client="golden-client", number=42)
    operation = Operation(action="write", key="golden-key", value="golden-value")
    attestation = Attestation(component="golden-tc", counter_id=1, value=9,
                              payload_digest=b"\x11" * 32,
                              signature=_sig("golden-tc"))
    request = ClientRequest(request_id=request_id, operations=(operation,),
                            signature=_sig("golden-client"))
    batch = RequestBatch(requests=(request,))
    preprepare = PrePrepare(view=1, seq=7, batch=batch,
                            batch_digest=b"\x22" * 32, primary=0,
                            attestation=attestation,
                            signature=_sig("replica-0"))
    checkpoint = Checkpoint(seq=100, state_digest=b"\x33" * 32,
                            replica=1, attestation=attestation,
                            signature=_sig("replica-1"))
    proof = PreparedProof(view=1, seq=7, batch=batch,
                          batch_digest=b"\x22" * 32, attestation=attestation,
                          prepare_count=3)
    fill_entry = LogFillEntry(seq=101, view=1, batch=batch,
                              batch_digest=b"\x22" * 32)
    return {
        "RequestId": request_id,
        "Operation": operation,
        "OperationResult": OperationResult(ok=True, value="golden-result"),
        "Signature": _sig("golden-signer"),
        "Mac": Mac(sender="golden-a", receiver="golden-b",
                   value=b"\x44" * 32),
        "Attestation": attestation,
        "Envelope": Envelope(source="golden-src", destination="golden-dst",
                             payload=request, sent_at=1.5, delivered_at=2.25),
        "ClientRequest": request,
        "RequestBatch": batch,
        "Response": Response(request_id=request_id, seq=7, view=1,
                             replica=0,
                             result=OperationResult(ok=True, value="done"),
                             result_digest=b"\x55" * 32, speculative=True,
                             signature=_sig("replica-0")),
        "ResendRequest": ResendRequest(request=request),
        "PrePrepare": preprepare,
        "Prepare": Prepare(view=1, seq=7, batch_digest=b"\x22" * 32,
                           replica=1, attestation=attestation,
                           signature=_sig("replica-1")),
        "Commit": Commit(view=1, seq=7, batch_digest=b"\x22" * 32,
                         replica=2, attestation=attestation,
                         signature=_sig("replica-2")),
        "CommitCertificate": CommitCertificate(
            request_id=request_id, seq=7, view=1, result_digest=b"\x55" * 32,
            responders=(0, 1, 2)),
        "CommitAck": CommitAck(request_id=request_id, seq=7, view=1,
                               replica=3,
                               result_digest=b"\x55" * 32,
                               signature=_sig("replica-3")),
        "Checkpoint": checkpoint,
        "PreparedProof": proof,
        "ViewChange": ViewChange(new_view=2, replica=1,
                                 last_stable_seq=100, prepared=(proof,),
                                 signature=_sig("replica-1")),
        "NewView": NewView(view=2, primary=1,
                           view_change_replicas=(1, 2, 3),
                           proposals=(preprepare,),
                           signature=_sig("replica-1")),
        "CheckpointRequest": CheckpointRequest(replica=2,
                                               last_executed=95, round=2,
                                               signature=_sig("replica-2")),
        "CheckpointReply": CheckpointReply(
            replica=0, checkpoint_seq=100,
            state_digest=b"\x33" * 32, last_executed=105, view=1,
            snapshot={"golden-key": "golden-value"},
            certificate=(checkpoint,), signature=_sig("replica-0")),
        "LogFillEntry": fill_entry,
        "LogFill": LogFill(replica=0, entries=(fill_entry,),
                           signature=_sig("replica-0")),
    }


def test_every_registered_class_has_a_golden_vector():
    ensure_default_registrations()
    instances = golden_instances()
    registered = set(WIRE_REGISTRY.registered_classes())
    assert registered == set(instances), (
        "registry and golden vectors disagree; add a golden instance (and "
        "regenerate the .bin) for every @wire_serializable class")
    missing = [name for name in registered
               if not (GOLDEN_DIR / f"{name}.bin").is_file()]
    assert not missing, (
        f"no committed golden vector for {missing}; run "
        "'PYTHONPATH=src python tests/unit/test_wire_golden.py --regen'")


@pytest.mark.parametrize("name", sorted(golden_instances()))
def test_golden_vector_round_trip(name):
    codec = WireCodec()
    instance = golden_instances()[name]
    committed = (GOLDEN_DIR / f"{name}.bin").read_bytes()
    assert codec.encode_frame(instance) == committed, (
        f"encoding {name} no longer matches its golden vector — the wire "
        "format changed; bump WIRE_VERSION and regenerate deliberately")
    decoded = codec.decode_frame(committed)
    assert decoded == instance
    assert type(decoded) is type(instance)
    # Decoded instances must re-encode byte-identically: digests and
    # signatures computed by the receiver match the sender's.
    assert canonical_bytes(decoded) == canonical_bytes(instance)


#: the last self-describing format's ``Response`` golden frame, as committed
#: before wire v3 (field names spelled out, decimal integers).
V2_FRAME = GOLDEN_DIR.parent / "wire-v2" / "Response.bin"


def test_a_v2_frame_is_refused_by_version():
    from repro.common.errors import UnsupportedWireVersion
    from repro.net.wire import WIRE_VERSION

    assert WIRE_VERSION == 4
    with pytest.raises(UnsupportedWireVersion, match="wire version 2"):
        WireCodec().decode_frame(V2_FRAME.read_bytes())
    # and every committed vector carries the current version byte
    for path in GOLDEN_DIR.glob("*.bin"):
        assert path.read_bytes()[2] == WIRE_VERSION, path.name


#: a v3 frame with a trace-context block (flags bit 1), as committed before
#: wire v4 took the block out.
V3_TRACED_FRAME = GOLDEN_DIR.parent / "wire-v3" / "ClientRequest.traced.bin"


def test_a_v3_traced_frame_is_refused_by_version():
    from repro.common.errors import UnsupportedWireVersion

    frame = V3_TRACED_FRAME.read_bytes()
    assert frame[2] == 3 and frame[3] & 0x02
    with pytest.raises(UnsupportedWireVersion, match="wire version 3"):
        WireCodec().decode_frame(frame)


@pytest.mark.parametrize("name", sorted(golden_instances()))
def test_a_golden_frame_with_the_old_trace_bit_is_refused(name):
    """Whatever the class, a v4 frame that sets bit 1 (the v3 trace-block
    flag) is refused from its header alone, before the payload is read."""
    from repro.common.errors import MalformedWirePayload
    from repro.net.wire import HEADER_SIZE

    frame = bytearray((GOLDEN_DIR / f"{name}.bin").read_bytes())
    frame[3] |= 0x02
    codec = WireCodec()
    with pytest.raises(MalformedWirePayload, match="unknown frame flags 0x02"):
        codec.parse_header(bytes(frame[:HEADER_SIZE]))
    with pytest.raises(MalformedWirePayload, match="unknown frame flags 0x02"):
        codec.decode_frame(bytes(frame))


def test_v4_is_v3_without_the_trace_block():
    """The v3 traced frame minus its flag bit and block is the v4 frame
    but for the version byte: v4 moved nothing else."""
    from repro.net.wire import HEADER, HEADER_SIZE

    v3 = V3_TRACED_FRAME.read_bytes()
    magic, _, flags, _ = HEADER.unpack_from(v3)
    # v3 block head: trace-id byte length (u16), span id, parent span id
    # (two u64); the utf-8 trace id follows.
    block = 2 + 8 + 8 + int.from_bytes(v3[HEADER_SIZE:HEADER_SIZE + 2], "big")
    payload = v3[HEADER_SIZE + block:]
    v4 = (GOLDEN_DIR / "ClientRequest.bin").read_bytes()
    assert v4 == HEADER.pack(magic, 4, flags & ~0x02, len(payload)) + payload


def _regen() -> None:
    ensure_default_registrations()
    codec = WireCodec()
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, instance in sorted(golden_instances().items()):
        path = GOLDEN_DIR / f"{name}.bin"
        path.write_bytes(codec.encode_frame(instance))
        print(f"wrote {path}")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)

"""Hot value types built by generated constructors behave like dataclasses.

``stores_fields`` replaces the ``__init__`` of the frozen value types every
message carries with one that stores fields straight into the instance
``__dict__`` or slots.  Everything else about those classes must stay what
``@dataclass`` made it: the signature and defaults, frozen assignment,
equality and hashing (held here against a plain ``@dataclass`` twin of
each), and the wire decoder's inline fast path.  ``RequestId`` also
memoises its hash and compares by identity first; ``reply_to`` lets
the replicas answering one request share one encoding of the signed reply
part.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil
from dataclasses import FrozenInstanceError, dataclass, fields

import pytest

import repro
from repro.common.types import RequestId
from repro.crypto.digest import (
    canonical_bytes,
    constructs_by_storing,
    stores_fields,
)
from repro.crypto.keystore import KeyStore
from repro.crypto.signatures import Signature
from repro.execution.ledger import ExecutedBatch
from repro.execution.state_machine import Operation, OperationResult
from repro.net.network import Envelope
from repro.net.wire import WIRE_REGISTRY, decode_payload
from repro.protocols.messages import (
    Checkpoint,
    ClientRequest,
    Commit,
    CommitAck,
    PrePrepare,
    Prepare,
    RequestBatch,
    Response,
    reply_to,
    signed_part_bytes,
)
from repro.runtime.metrics import CompletionRecord

DIGEST = b"\x02" * 32
OTHER_DIGEST = b"\x03" * 32
RID = RequestId("client-3", 7)
OP = Operation("write", "user1", "v")
RESULT = OperationResult(True, "x")
SIG = Signature("replica-1", b"\x01" * 32)
REQUEST = ClientRequest(RID, (OP,), SIG)
BATCH = RequestBatch((REQUEST,))

#: every class with a generated constructor: (field values, the same with
#: one field changed).
SAMPLES = {
    RequestId: (("client-3", 7), ("client-3", 8)),
    Operation: (("write", "user1", "v"), ("read", "user1", "v")),
    OperationResult: ((True, "x"), (False, "x")),
    Signature: (("replica-1", b"\x01" * 32), ("replica-2", b"\x01" * 32)),
    ClientRequest: ((RID, (OP,), SIG), (RID, (OP, OP), SIG)),
    RequestBatch: (((REQUEST,),), ((REQUEST, REQUEST),)),
    Response: ((RID, 4, 0, 1, RESULT, DIGEST, False, SIG),
               (RID, 4, 1, 1, RESULT, DIGEST, False, SIG)),
    PrePrepare: ((0, 4, BATCH, DIGEST, 0, None, SIG),
                 (0, 5, BATCH, DIGEST, 0, None, SIG)),
    Prepare: ((0, 4, DIGEST, 1, None, SIG), (0, 4, DIGEST, 2, None, SIG)),
    Commit: ((0, 4, DIGEST, 1, None, SIG), (0, 4, OTHER_DIGEST, 1, None, SIG)),
    Checkpoint: ((100, DIGEST, 1, None, SIG), (200, DIGEST, 1, None, SIG)),
    CommitAck: ((RID, 4, 0, 1, DIGEST, SIG), (RID, 4, 0, 1, OTHER_DIGEST, SIG)),
    ExecutedBatch: ((4, DIGEST, ("client-3#7",), (RESULT,), 12.5, False),
                    (4, DIGEST, ("client-3#7",), (RESULT,), 12.5, True)),
    Envelope: (("replica-0", "replica-1", REQUEST, 1.0, 2.5),
               ("replica-0", "replica-2", REQUEST, 1.0, 2.5)),
    CompletionRecord: (("client-3", RID, 1.0, 3.0, 1),
                       ("client-3", RID, 1.0, 4.0, 1)),
}
CLASSES = list(SAMPLES)


def twin(cls: type) -> type:
    """A plain ``@dataclass`` with ``cls``'s fields, defaults and options."""
    namespace = {"__annotations__": {f.name: f.type for f in fields(cls)}}
    for f in fields(cls):
        if f.default is not dataclasses.MISSING:
            namespace[f.name] = f.default
    params = cls.__dataclass_params__
    return dataclass(frozen=params.frozen, eq=params.eq,
                     slots="__slots__" in cls.__dict__)(
        type(cls.__name__, (), namespace))


def test_every_generated_constructor_is_covered():
    generated = set()
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if module.name.endswith("__main__"):
            continue
        for value in vars(importlib.import_module(module.name)).values():
            if (isinstance(value, type)
                    and getattr(value.__dict__.get("__init__"),
                                "__stores_fields__", False)):
                generated.add(value)
    assert generated == set(CLASSES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
class TestLikeTheDataclass:
    def test_signature_and_defaults(self, cls):
        plain = twin(cls)
        assert inspect.signature(cls) == inspect.signature(plain)
        assert cls.__init__.__defaults__ == plain.__init__.__defaults__
        assert cls.__init__.__annotations__ == plain.__init__.__annotations__

    def test_keywords_build_the_same_value(self, cls):
        values, _ = SAMPLES[cls]
        keywords = {f.name: value for f, value in zip(fields(cls), values)}
        assert cls(**keywords) == cls(*values)

    def test_assignment_still_raises(self, cls):
        value = cls(*SAMPLES[cls][0])
        first = fields(cls)[0].name
        with pytest.raises(FrozenInstanceError):
            setattr(value, first, None)

    def test_equality_and_hash_match_the_twin(self, cls):
        values, changed = SAMPLES[cls]
        plain = twin(cls)
        one, again, other = cls(*values), cls(*values), cls(*changed)
        assert one is not again and one == again and not one != again
        assert one != other
        assert (plain(*values) == plain(*changed)) == (one == other)
        assert hash(one) == hash(again) == hash(plain(*values))
        assert hash(other) == hash(plain(*changed))
        assert dataclasses.astuple(one) == dataclasses.astuple(plain(*values))


@pytest.mark.parametrize(
    "cls", [cls for cls in CLASSES
            if cls.__name__ in WIRE_REGISTRY.registered_classes()],
    ids=lambda cls: cls.__name__)
def test_the_wire_decoder_stores_fields_inline(cls, monkeypatch):
    value = cls(*SAMPLES[cls][0])
    payload = canonical_bytes(value)
    assert constructs_by_storing(cls)
    assert decode_payload(payload) == value

    def refuse(*args, **kwargs):
        raise AssertionError("the decoder called the constructor")

    # The decoders exist now; with the constructor unusable they still
    # build the value, because they store its fields themselves.
    monkeypatch.setattr(cls, "__init__", refuse)
    decoded = decode_payload(payload)
    monkeypatch.undo()
    assert decoded == value and hash(decoded) == hash(value)
    assert canonical_bytes(decoded, use_cache=False) == payload


class TestRequestId:
    def test_equality_holds_across_distinct_instances(self):
        one, two = RequestId("client-1", 3), RequestId("client-1", 3)
        assert one is not two
        assert one == two and hash(one) == hash(two)
        assert {one: "reply"}[two] == "reply"
        assert one != RequestId("client-1", 4)
        assert one != RequestId("client-2", 3)

    def test_other_types_are_not_implemented(self):
        rid = RequestId("client-1", 3)
        assert rid.__eq__(("client-1", 3)) is NotImplemented
        assert rid != ("client-1", 3)
        assert not rid == "client-1#3"

    def test_hash_is_the_field_tuple_hash(self):
        assert hash(RequestId("client-9", 12)) == hash(("client-9", 12))
        assert hash(OperationResult(False, "y")) == hash((False, "y"))

    def test_replace_rebuilds_the_hash(self):
        moved = dataclasses.replace(RID, number=8)
        assert hash(moved) == hash(("client-3", 8)) and moved != RID


class TestSharedReplyEncoding:
    def test_a_shared_part_encodes_and_signs_like_a_fresh_one(self):
        request = ClientRequest(RID, (OP,))
        first = reply_to(request, 4, 0, 0, RESULT, DIGEST)
        second = reply_to(request, 4, 0, 1, RESULT, DIGEST, True)
        fresh = Response(RequestId("client-3", 7), 4, 0, 1, RESULT, DIGEST,
                         True)
        assert second == fresh and second.request_id is request.request_id
        assert signed_part_bytes(second) is signed_part_bytes(first)
        assert (signed_part_bytes(second) == signed_part_bytes(fresh)
                == canonical_bytes(fresh.signed_part()))
        key = KeyStore(seed=1).register("replica-1")
        assert (key.sign_bytes(signed_part_bytes(second))
                == key.sign_bytes(canonical_bytes(fresh.signed_part())))

    @pytest.mark.parametrize("view, result_digest",
                             [(1, DIGEST), (0, OTHER_DIGEST)],
                             ids=["view", "result"])
    def test_a_different_view_or_result_is_re_encoded(self, view,
                                                      result_digest):
        request = ClientRequest(RID, (OP,))
        first = reply_to(request, 4, 0, 0, RESULT, DIGEST)
        other = reply_to(request, 4, view, 1, RESULT, result_digest)
        assert signed_part_bytes(other) == canonical_bytes(other.signed_part())
        assert signed_part_bytes(other) != signed_part_bytes(first)
        # ... and re-pinned: a later reply matching it shares its bytes.
        later = reply_to(request, 4, view, 2, RESULT, result_digest)
        assert signed_part_bytes(later) is signed_part_bytes(other)


class TestStoresFieldsRefuses:
    def test_a_default_factory(self):
        with pytest.raises(TypeError, match="default_factory|positional"):
            @stores_fields
            @dataclass(frozen=True)
            class WithFactory:
                items: list = dataclasses.field(default_factory=list)

    def test_a_post_init(self):
        with pytest.raises(TypeError, match="__post_init__"):
            @stores_fields
            @dataclass(frozen=True)
            class WithPostInit:
                value: int

                def __post_init__(self):
                    pass

    def test_a_memoised_hash_without_a_dict(self):
        with pytest.raises(TypeError, match="memoised hash"):
            @stores_fields(memoise_hash=True)
            @dataclass(frozen=True, slots=True)
            class Slotted:
                value: int

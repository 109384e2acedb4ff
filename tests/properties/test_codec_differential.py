"""Differential tests: the generated codec against an independent reference.

The per-class encoders and decoders are generated code, so nothing about
them is taken on trust.  ``reference_encode`` and ``reference_decode``
below are the positional format written out as its plain recursive
definition, sharing no code with ``src/``: they read field hints with
:mod:`typing` and keep their own copy of the pinned class tags.  On every
input, well formed or hostile, :func:`~repro.net.wire.decode_payload` must
give the value the reference gives or raise the error class it raises, pin
on every record the bytes that record re-encodes to, and take linear time.
Outside a declared field a tuple decodes as a list and a frozenset as a
set, so the plain values generated here use lists and sets.
"""

from __future__ import annotations

import gc
import hashlib
import math
import pathlib
import struct
import time
import typing
from dataclasses import dataclass, fields, is_dataclass
from types import UnionType
from typing import Optional

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.common.errors import (
    MalformedWirePayload,
    NonCanonicalPayload,
    TruncatedPayload,
    UnencodableWirePayload,
    UnknownWireClass,
    WireError,
)
from repro.crypto.digest import _CANONICAL_CACHE, canonical_bytes
from repro.net.network import Envelope
from repro.net.wire import (
    FLAG_ENVELOPE,
    HEADER_SIZE,
    MAX_DECODE_DEPTH,
    WIRE_REGISTRY,
    WireCodec,
    WireRegistry,
    decode_payload,
    encode_payload,
    ensure_default_registrations,
)
from repro.protocols.messages import ClientRequest, signed_part_bytes

ensure_default_registrations()
CLASSES = WIRE_REGISTRY.registered_classes()
GOLDEN_DIR = pathlib.Path(__file__).resolve().parents[1] / "golden" / "wire"
prop_settings = settings(max_examples=60, deadline=None,
                         suppress_health_check=[HealthCheck.too_slow])

#: the default registry's class tags, as the format pins them.
TAGS = {
    "RequestId": 0x10, "Operation": 0x11, "OperationResult": 0x12,
    "Signature": 0x13, "Mac": 0x14, "Attestation": 0x15, "Envelope": 0x16,
    "ClientRequest": 0x20, "RequestBatch": 0x21, "Response": 0x22,
    "ResendRequest": 0x23, "CommitCertificate": 0x24, "CommitAck": 0x25,
    "PrePrepare": 0x30, "Prepare": 0x31, "Commit": 0x32,
    "Checkpoint": 0x40, "ViewChange": 0x41, "NewView": 0x42,
    "PreparedProof": 0x43, "CheckpointRequest": 0x44,
    "CheckpointReply": 0x45, "LogFill": 0x46, "LogFillEntry": 0x47,
}
MAX_VARINT = 64


# ---------------------------------------------------------------------------
# the reference codec: the format's definition, nothing shared
# ---------------------------------------------------------------------------
def hints_of(cls):
    hints = typing.get_type_hints(cls)
    return [(f.name, hints[f.name]) for f in fields(cls)]


def optional(hint):
    args = typing.get_args(hint)
    if typing.get_origin(hint) in (typing.Union, UnionType) \
            and len(args) == 2 and type(None) in args:
        return next(arg for arg in args if arg is not type(None))
    return None


def items_of(hint):
    if hint is tuple:
        return object
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple and len(args) == 2 \
            and args[1] is Ellipsis:
        return args[0]
    return None


def varint(n):
    out = bytearray()
    while True:
        out.append((n & 0x7F) | (0x80 if n > 0x7F else 0))
        n >>= 7
        if not n:
            return bytes(out)


def zigzag(n):
    return varint(2 * n if n >= 0 else -2 * n - 1)


def f64(x):
    return struct.pack(">d", math.nan if x != x else x)


def reference_encode(value, tags=TAGS, hint=object):
    """The canonical bytes of ``value`` in a slot declared ``hint``."""
    if hint is not object and hint is not None:
        inner = optional(hint)
        if inner is not None:
            return b"\x00" if value is None else \
                b"\x01" + reference_encode(value, tags, inner)
        if hint in (int, str, bytes, float, bool):
            assert type(value) is hint or (hint is bytes and
                                           type(value) is bytearray)
            whole = reference_encode(value, tags)
            return bytes((whole[0] - 1,)) if hint is bool else whole[1:]
        if items_of(hint) is not None:
            assert type(value) is tuple
            return varint(len(value)) + b"".join(
                reference_encode(item, tags, items_of(hint)) for item in value)
        if is_dataclass(hint):
            assert type(value) is hint
    if value is None:
        return b"\x00"
    if isinstance(value, bool):
        return b"\x02" if value else b"\x01"
    if isinstance(value, int):
        return b"\x03" + zigzag(value)
    if isinstance(value, float):
        return b"\x04" + f64(value)
    if isinstance(value, str):
        return b"\x05" + varint(len(value.encode())) + value.encode()
    if isinstance(value, (bytes, bytearray)):
        return b"\x06" + varint(len(value)) + bytes(value)
    if is_dataclass(value):
        return bytes((tags[type(value).__name__],)) + b"".join(
            reference_encode(getattr(value, name), tags, field_hint)
            for name, field_hint in hints_of(type(value)))
    if isinstance(value, (list, tuple)):
        return b"\x07" + varint(len(value)) + b"".join(
            reference_encode(item, tags) for item in value)
    if isinstance(value, (set, frozenset)):
        members = sorted(reference_encode(m, tags) for m in value)
        return b"\x08" + varint(len(members)) + b"".join(members)
    if isinstance(value, dict):
        pairs = sorted((reference_encode(k, tags), reference_encode(v, tags))
                       for k, v in value.items())
        return b"\x09" + varint(len(pairs)) + b"".join(k + v for k, v in pairs)
    raise TypeError(type(value))


class Reader:
    """The reference decoder over one payload."""

    def __init__(self, data, classes):
        self.data, self.p = data, 0
        #: tag -> class
        self.classes = classes

    def byte(self):
        if self.p >= len(self.data):
            raise TruncatedPayload("end")
        self.p += 1
        return self.data[self.p - 1]

    def take(self, size):
        if self.p + size > len(self.data):
            raise TruncatedPayload("end")
        self.p += size
        return self.data[self.p - size:self.p]

    def uvarint(self):
        value = 0
        for index in range(MAX_VARINT):
            byte = self.byte()
            value |= (byte & 0x7F) << (7 * index)
            if byte < 0x80:
                if byte == 0 and index:
                    raise NonCanonicalPayload("padded varint")
                return value
        raise MalformedWirePayload("long varint")

    def count(self):
        count = self.uvarint()
        if count > len(self.data) - self.p:
            raise TruncatedPayload("count")
        return count

    def flag(self):
        byte = self.byte()
        if byte > 1:
            raise NonCanonicalPayload("flag")
        return byte == 1

    def deeper(self, depth):
        if depth >= MAX_DECODE_DEPTH:
            raise MalformedWirePayload("too deep")

    def text(self):
        raw = self.take(self.uvarint())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            raise MalformedWirePayload("utf-8") from None

    def double(self):
        raw = self.take(8)
        value = struct.unpack(">d", raw)[0]
        if value != value and raw != f64(math.nan):
            raise NonCanonicalPayload("nan")
        return value

    def typed(self, hint, depth):
        inner = optional(hint)
        if inner is not None:
            return self.typed(inner, depth) if self.flag() else None
        if hint is int:
            value = self.uvarint()
            return (value >> 1) ^ -(value & 1)
        if hint is str:
            return self.text()
        if hint is bytes:
            return self.take(self.uvarint())
        if hint is bool:
            return self.flag()
        if hint is float:
            return self.double()
        if items_of(hint) is not None:
            self.deeper(depth)
            return tuple(self.typed(items_of(hint), depth + 1)
                         for _ in range(self.count()))
        if isinstance(hint, type) and is_dataclass(hint):
            tag = next((t for t, cls in self.classes.items() if cls is hint),
                       None)
            if tag is None:
                raise UnknownWireClass("declared, unregistered")
            if self.byte() != tag:
                raise MalformedWirePayload("another record")
            self.p -= 1
            return self.value(depth)
        return self.value(depth)

    def value(self, depth):
        start = self.p
        tag = self.byte()
        if tag >= 0x10:
            cls = self.classes.get(tag)
            if cls is None:
                raise UnknownWireClass("tag")
            self.deeper(depth)
            values = [self.typed(field_hint, depth + 1)
                      for _, field_hint in hints_of(cls)]
            try:
                return cls(*values)
            except Exception:
                raise MalformedWirePayload("constructor") from None
        if tag <= 2:
            return (None, False, True)[tag]
        if tag == 3:
            return self.typed(int, depth)
        if tag == 4:
            return self.double()
        if tag == 5:
            return self.text()
        if tag == 6:
            return self.take(self.uvarint())
        if tag > 9:
            raise MalformedWirePayload("unknown value tag")
        self.deeper(depth)
        count = self.count()
        if tag == 7:
            return [self.value(depth + 1) for _ in range(count)]
        members, previous = [], b""
        for _ in range(count):
            at = self.p
            member = self.value(depth + 1)
            if self.data[at:self.p] <= previous:
                raise NonCanonicalPayload("order")
            previous = self.data[at:self.p]
            members.append((member, self.value(depth + 1))
                           if tag == 9 else member)
        try:
            result = dict(members) if tag == 9 else set(members)
        except TypeError:
            raise MalformedWirePayload("unhashable") from None
        if len(result) != count:
            raise NonCanonicalPayload("equal members")
        assert start < self.p
        return result


BY_TAG = {tag: CLASSES[name] for name, tag in TAGS.items()}


def reference_decode(payload, classes=BY_TAG):
    reader = Reader(payload, classes)
    value = reader.value(0)
    if reader.p != len(payload):
        raise MalformedWirePayload("trailing")
    return value


# ---------------------------------------------------------------------------
# strategies: every registered class, from its own type hints
# ---------------------------------------------------------------------------
SCALARS = {
    int: st.integers(min_value=-(2**200), max_value=2**200),
    str: st.text(max_size=12),
    bytes: st.binary(max_size=40),
    bool: st.booleans(),
    float: st.floats(allow_nan=False),
}
plain_values = st.recursive(
    st.one_of(st.none(), st.booleans(), SCALARS[int], st.text(max_size=8),
              st.floats(allow_nan=False), st.binary(max_size=8)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.one_of(st.text(max_size=4), SCALARS[int]), inner,
                        max_size=3),
        st.sets(st.one_of(SCALARS[int], st.text(max_size=4)), max_size=3)),
    max_leaves=6)


def _value_strategy(hint, depth):
    if hint in SCALARS:
        return SCALARS[hint]
    if optional(hint) is not None:
        return st.one_of(st.none(), _value_strategy(optional(hint), depth))
    if items_of(hint) is not None:
        return st.lists(_value_strategy(items_of(hint), depth),
                        max_size=3).map(tuple)
    if isinstance(hint, type) and is_dataclass(hint):
        return instances(hint, depth)
    # ``object`` fields: plain data, or (one level of) any other message.
    if depth >= 1:
        return plain_values
    return st.one_of(plain_values, st.sampled_from(sorted(CLASSES)).flatmap(
        lambda name: instances(CLASSES[name], depth + 1)))


def instances(cls, depth=0):
    return st.builds(cls, **{name: _value_strategy(hint, depth)
                             for name, hint in hints_of(cls)})


any_instance = st.sampled_from(sorted(CLASSES)).flatmap(
    lambda name: instances(CLASSES[name]))


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------
def outcome(decode, payload, *args):
    try:
        return ("value", decode(payload, *args))
    except WireError as exc:
        return (type(exc),)


def pins(value) -> list:
    """``(pinned bytes, instance)`` for every pinned record under ``value``."""
    found = []
    if is_dataclass(value):
        pinned = getattr(value, "__dict__", {}).get(_CANONICAL_CACHE)
        if pinned is not None:
            found.append((pinned, value))
        for f in fields(value):
            found.extend(pins(getattr(value, f.name)))
    elif isinstance(value, (list, tuple, set, frozenset)):
        for item in value:
            found.extend(pins(item))
    elif isinstance(value, dict):
        for key, item in value.items():
            found.extend(pins(key) + pins(item))
    return found


def same_types(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if is_dataclass(a):
        return all(same_types(getattr(a, f.name), getattr(b, f.name))
                   for f in fields(a))
    if isinstance(a, (list, tuple)):
        return all(map(same_types, a, b))
    if isinstance(a, dict):
        return all(same_types(a[key], b[key]) for key in a)
    return True


def assert_agrees(payload, registry=WIRE_REGISTRY, classes=BY_TAG):
    """``decode_payload`` is the reference, with its pins; returns both."""
    ours = outcome(decode_payload, payload, registry)
    theirs = outcome(reference_decode, payload, classes)
    assert ours == theirs
    if ours[0] == "value":
        # An accepted payload has exactly one spelling: its own, and so does
        # every record inside it, whose pin is its re-encoding.
        assert canonical_bytes(ours[1]) == payload
        assert canonical_bytes(ours[1], use_cache=False) == payload
        for pinned, record in pins(ours[1]):
            assert pinned == canonical_bytes(record, use_cache=False)
    return ours


def golden_payloads() -> dict:
    """The canonical payload of every golden vector (for the ``Envelope``
    frame, of the instance it decodes to)."""
    payloads = {}
    for path in sorted(GOLDEN_DIR.glob("*.bin")):
        frame = path.read_bytes()
        if frame[3] & FLAG_ENVELOPE:
            payloads[path.stem] = canonical_bytes(
                WireCodec().decode_frame(frame), use_cache=False)
        else:
            payloads[path.stem] = frame[HEADER_SIZE:]
    return payloads


# ---------------------------------------------------------------------------
# encoders
# ---------------------------------------------------------------------------
def test_the_reference_tags_are_the_pinned_tags():
    from repro.net.wire import DEFAULT_CLASS_TAGS

    assert DEFAULT_CLASS_TAGS == TAGS
    assert set(CLASSES) == set(TAGS)


@prop_settings
@given(any_instance)
def test_generated_encoders_match_the_reference(instance):
    expected = reference_encode(instance)
    assert canonical_bytes(instance, use_cache=False) == expected
    assert canonical_bytes(instance) == expected          # fills the caches
    assert canonical_bytes(instance) == expected          # reads them
    assert canonical_bytes(instance, use_cache=False) == expected
    # inside an enclosing value, with the nested caches now warm
    assert canonical_bytes([instance, {"k": instance}]) == \
        reference_encode([instance, {"k": instance}])


@prop_settings
@given(any_instance)
def test_signed_parts_and_payload_digests_match_the_reference(instance):
    if hasattr(instance, "signed_part"):
        assert signed_part_bytes(instance) == \
            reference_encode(instance.signed_part())
    if isinstance(instance, ClientRequest):
        assert instance.payload_digest() == hashlib.sha256(reference_encode(
            {"request_id": instance.request_id,
             "operations": instance.operations})).digest()


@prop_settings
@given(plain_values)
def test_plain_values_match_the_reference(value):
    assert canonical_bytes(value) == reference_encode(value)


def test_every_registered_class_has_generated_codecs():
    from repro.crypto.digest import _DISPATCH

    for name, cls in CLASSES.items():
        decoded = decode_payload(canonical_bytes(tidy_example(cls)))
        assert _DISPATCH[cls].__code__.co_filename.startswith(
            "<generated encoder")
        assert WIRE_REGISTRY._by_name[name].decode.__code__.co_filename \
            .startswith("<generated decoder")
        assert decoded == tidy_example(cls)


def tidy_example(hint):
    """One fixed instance of ``hint`` with every field as its hint says."""
    if hint in _TIDY_EXAMPLES:
        return _TIDY_EXAMPLES[hint]
    if optional(hint) is not None:
        return tidy_example(optional(hint))
    if items_of(hint) is not None:
        return (tidy_example(items_of(hint)),)
    if isinstance(hint, type) and is_dataclass(hint):
        return hint(**{name: tidy_example(field_hint)
                       for name, field_hint in hints_of(hint)})
    return {"plain": ["data", 1]}


_TIDY_EXAMPLES = {int: 7, str: "replica-1", bytes: b"\x07" * 32, bool: True,
                  float: 2.5}


# ---------------------------------------------------------------------------
# decoders
# ---------------------------------------------------------------------------
@prop_settings
@given(any_instance)
def test_round_trip_keeps_value_and_type(instance):
    payload = reference_encode(instance)
    assert assert_agrees(payload) == ("value", instance)
    decoded = decode_payload(payload)
    assert same_types(decoded, instance)


@prop_settings
@given(plain_values)
def test_plain_values_round_trip(value):
    decoded = assert_agrees(reference_encode(value))[1]
    assert decoded == value


@pytest.mark.parametrize("name", sorted(golden_payloads()))
def test_golden_vectors_agree_with_the_reference(name):
    payload = golden_payloads()[name]
    assert assert_agrees(payload)[0] == "value"
    assert reference_encode(decode_payload(payload)) == payload
    # and inside an Envelope, as nested values cross the wire
    assert_agrees(reference_encode(
        Envelope("a", "b", decode_payload(payload), 1.5, 2.25)))


# ---------------------------------------------------------------------------
# hostile bytes
# ---------------------------------------------------------------------------
def _mutations(payload: bytes):
    for cut in range(len(payload)):
        yield payload[:cut]
    yield payload + b"\x00"
    for offset in range(len(payload)):
        for flipped in (payload[offset] ^ 0x01, payload[offset] ^ 0x80, 0x02,
                        0xFF):
            if flipped != payload[offset]:
                yield (payload[:offset] + bytes((flipped,))
                       + payload[offset + 1:])


def mutation_subjects() -> dict:
    subjects = {f"golden-{name}": payload
                for name, payload in golden_payloads().items()}
    subjects["plain"] = reference_encode(
        {"k": [1, -300, 2.5, None, True], 7: {b"x", "y"}, "z": "ü"})
    return subjects


@pytest.mark.parametrize("name", sorted(mutation_subjects()))
def test_mutated_payloads_fail_as_the_reference_does(name):
    payload = mutation_subjects()[name]
    assert_agrees(payload)
    accepted = 0
    for mutated in _mutations(payload):
        accepted += assert_agrees(mutated)[0] == "value"
    # flipping a byte inside a string or digest body still decodes; cutting
    # never does
    assert accepted < len(payload) * 4


RESPONSE = CLASSES["Response"]
REQUEST_ID = CLASSES["RequestId"]


def _response(**changes):
    return canonical_bytes(tidy_example(RESPONSE).__class__(**{
        **{f.name: getattr(tidy_example(RESPONSE), f.name)
           for f in fields(RESPONSE)}, **changes}), use_cache=False)


#: one hand-made payload per defect, each with the exact error it earns.
HOSTILE = {
    "non-minimal varint (int)": (b"\x03\x8e\x00", NonCanonicalPayload),
    "non-minimal varint (length)": (b"\x05\x81\x00x", NonCanonicalPayload),
    "non-minimal varint (field)": (b"\x10\x01c\x8e\x00", NonCanonicalPayload),
    "varint past the cap": (b"\x03" + b"\xff" * 70, MalformedWirePayload),
    "bool byte 2": (_response(speculative=False).replace(
        b"\x07" * 32 + b"\x00", b"\x07" * 32 + b"\x02"), NonCanonicalPayload),
    "presence byte 2": (_response(signature=None)[:-1] + b"\x02",
                        NonCanonicalPayload),
    "truncated": (canonical_bytes(REQUEST_ID("client", 7))[:-1],
                  TruncatedPayload),
    "truncated string": (b"\x05\x09abc", TruncatedPayload),
    "truncated double": (b"\x04\x00\x00", TruncatedPayload),
    "trailing bytes": (canonical_bytes(REQUEST_ID("c", 7)) + b"\x00",
                       MalformedWirePayload),
    "unsorted set": (b"\x08\x02\x03\x04\x03\x02", NonCanonicalPayload),
    "duplicate set member": (b"\x08\x02\x03\x02\x03\x02",
                             NonCanonicalPayload),
    "unsorted dict": (b"\x09\x02\x05\x01b\x00\x05\x01a\x00",
                      NonCanonicalPayload),
    "duplicate dict key": (b"\x09\x02\x05\x01a\x00\x05\x01a\x01",
                           NonCanonicalPayload),
    "equal set members": (b"\x08\x02\x02\x03\x02", NonCanonicalPayload),
    "non-canonical NaN": (b"\x04\x7f\xf0\x00\x00\x00\x00\x00\x01",
                          NonCanonicalPayload),
    "invalid utf-8": (b"\x05\x02\xc3\x28", MalformedWirePayload),
    "invalid utf-8 (field)": (b"\x10\x01\xff\x00", MalformedWirePayload),
    "unknown class tag": (b"\xee\x00", UnknownWireClass),
    "unknown value tag": (b"\x0b", MalformedWirePayload),
    "declared record with another tag": (
        b"\x20\x13\x01c\x00\x00\x00", MalformedWirePayload),
    "too deep": (b"\x07\x01" * (MAX_DECODE_DEPTH + 1) + b"\x00",
                 MalformedWirePayload),
}


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_each_defect_raises_its_typed_error(name):
    payload, error = HOSTILE[name]
    with pytest.raises(WireError) as raised:
        decode_payload(payload)
    assert type(raised.value) is error
    assert outcome(reference_decode, payload) == (error,)


def test_non_finite_envelope_times_are_refused_by_the_head():
    frame = bytearray(WireCodec().encode_frame(
        Envelope("a", "b", None, 1.5, 2.25)))
    frame[HEADER_SIZE:HEADER_SIZE + 8] = struct.pack(">d", math.inf)
    with pytest.raises(WireError) as raised:
        WireCodec().decode_frame(bytes(frame))
    assert type(raised.value) is MalformedWirePayload
    # inside the canonical encoding a double may be anything but a second
    # NaN, and the encoder spells every NaN as the one NaN
    assert decode_payload(b"\x04" + f64(math.inf)) == math.inf
    other_nan = struct.unpack(">d", b"\x7f\xf0\x00\x00\x00\x00\x00\x01")[0]
    assert canonical_bytes(other_nan) == b"\x04" + f64(math.nan)


def test_nesting_ceiling():
    def nested(levels):
        value = "core"
        for _ in range(levels):
            value = Envelope("a", "b", value, 1.0, 2.0)
        return reference_encode(value)

    for levels in (1, 20, MAX_DECODE_DEPTH - 1, MAX_DECODE_DEPTH,
                   MAX_DECODE_DEPTH + 1, MAX_DECODE_DEPTH + 6):
        result = assert_agrees(nested(levels))
        assert (result[0] == "value") == (levels <= MAX_DECODE_DEPTH)
    for levels in (MAX_DECODE_DEPTH, MAX_DECODE_DEPTH + 1):
        assert_agrees(b"\x07\x01" * levels + b"\x00")


def test_values_the_schema_refuses_are_unencodable():
    for value in (REQUEST_ID("c", True), REQUEST_ID("c", 1.0),
                  REQUEST_ID(None, 1), CLASSES["RequestBatch"]([]),
                  CLASSES["OperationResult"](1, "x"), 2**460, "\ud800"):
        with pytest.raises(UnencodableWirePayload):
            encode_payload(value)


# ---------------------------------------------------------------------------
# hostile sizes: decode stays linear
# ---------------------------------------------------------------------------
def _decode_seconds(*payloads: bytes) -> list[float]:
    """The best of three decode times of each payload.

    The payloads take turns, so a stretch of host load slows all of them
    rather than only the one that happened to be timed then.  As timeit
    does, the cyclic collector is kept out of the timing: a full collection
    scans every object the test session holds, so one that falls inside
    the larger decode but not the smaller would charge the decoder for the
    size of the heap, not of the frame.
    """
    best = [float("inf")] * len(payloads)
    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            for i, payload in enumerate(payloads):
                start = time.perf_counter()
                try:
                    decode_payload(payload)
                except WireError:
                    pass
                best[i] = min(best[i], time.perf_counter() - start)
    finally:
        if collecting:
            gc.enable()
    return best


@pytest.mark.parametrize("build", [
    # one long string
    lambda size: reference_encode(Envelope("x" * size, "b", None, 1.0, 2.0)),
    # the same, then a frame that is broken after it
    lambda size: reference_encode(Envelope(
        "x" * size, "b", None, 1.0, 2.0))[:-9] + b"\xff" * 9,
    # many small typed records, each ending where the next begins
    lambda size: reference_encode(Envelope("a", "b", tuple(
        CLASSES["Operation"]("value", "d" * 20, "ddd")
        for _ in range(size // 32)), 1.0, 2.0)),
    # many set members, each compared with the one before
    lambda size: reference_encode(set(range(size // 4))),
    # deep and wide at once: each level's decoder must not redo its children
    lambda size: reference_encode(_nest(size)),
])
def test_decode_time_is_proportional_to_frame_size(build):
    quarter, full = build(250_000), build(1_000_000)
    assert 3.5 < len(full) / len(quarter) < 4.5
    _decode_seconds(quarter)  # generate the decoders outside the timing
    quarter_s, full_s = _decode_seconds(quarter, full)
    # 20 ms of slack for allocator effects on frames that decode in
    # microseconds; a decoder that rescans per item takes seconds.
    assert full_s < 6 * quarter_s + 0.02


def _nest(size: int):
    # Forty levels of envelopes, then a string the decoder cannot read.
    value = Envelope("innermost", "b", None, 1.0, 2.0)
    for _ in range(40):
        value = Envelope("x" * (size // 40), "b", value, 1.0, 2.0)
    return value


# ---------------------------------------------------------------------------
# custom registries
# ---------------------------------------------------------------------------
CUSTOM_TAGS = {"Point": 0xF0, "Segment": 0xF1, "Checked": 0xF2, "Tree": 0xF3,
               "Ping": 0xF4, "Pong": 0xF5, "Holder": 0xF6}
CUSTOM = WireRegistry(CUSTOM_TAGS)


@CUSTOM.register
@dataclass(frozen=True)
class Point:
    x: int
    y: int
    label: str = ""


@CUSTOM.register
@dataclass(frozen=True, slots=True)
class Segment:
    start: Point
    end: Optional[Point]
    tags: tuple[str, ...]
    weight: float


@CUSTOM.register
@dataclass
class Checked:
    n: int

    def __post_init__(self):
        if self.n == 13:
            raise ValueError("unlucky")


@CUSTOM.register
@dataclass(frozen=True)
class Tree:
    name: str
    children: tuple[Tree, ...]
    parent: Optional[Tree] = None


@CUSTOM.register
@dataclass(frozen=True)
class Ping:
    pongs: tuple[Pong, ...]
    first: Pong


@CUSTOM.register
@dataclass(frozen=True)
class Pong:
    n: int
    pings: tuple[Ping, ...] = ()


@dataclass(frozen=True)
class Stranger:
    n: int


@CUSTOM.register
@dataclass(frozen=True)
class Holder:
    inner: object
    points: tuple[Point, ...] = ()


CUSTOM_BY_TAG = {tag: CUSTOM.registered_classes()[name]
                 for name, tag in CUSTOM_TAGS.items()}


def test_custom_registry_round_trips_through_generated_decoders():
    codec = WireCodec(registry=CUSTOM)
    values = [
        Point(3, 4), Point(-3, 10**12, "a:b"),
        Segment(Point(0, 0, "o"), None, ("a", "b"), 0.5),
        Segment(Point(1, 2), Point(3, 4), (), float("inf")),
        Checked(7),
        Tree("root", (Tree("leaf", ()), Tree("twig", (Tree("bud", ()),))),
             Tree("above", ())),
        Holder([Point(1, 1), {"k": Point(2, 2)}], (Point(5, 6), Point(7, 8))),
        Ping((Pong(1), Pong(2, (Ping((), Pong(3)),))), Pong(4)),
    ]
    tags = {**TAGS, **CUSTOM_TAGS}
    for value in values:
        frame = codec.encode_frame(value)
        assert frame[HEADER_SIZE:] == reference_encode(value, tags)
        assert codec.decode_frame(frame) == value
        assert assert_agrees(frame[HEADER_SIZE:], CUSTOM,
                             CUSTOM_BY_TAG) == ("value", value)
    # a constructor that objects, and a class this registry never met, fail
    # with the reference's typed errors
    objecting = reference_encode(Checked(7), tags)[:-1] + zigzag(13)
    assert assert_agrees(objecting, CUSTOM, CUSTOM_BY_TAG) == \
        (MalformedWirePayload,)
    assert assert_agrees(b"\xf6\x10\x01c\x02\x00", CUSTOM, CUSTOM_BY_TAG) \
        == (UnknownWireClass,)
    # and the default registry knows none of these
    assert outcome(decode_payload, reference_encode(Point(3, 4), tags))[0] \
        is UnknownWireClass
    with pytest.raises(UnencodableWirePayload, match="class tag"):
        encode_payload(Holder(Stranger(1)))

"""Unit tests for the versioned binary wire codec."""

from __future__ import annotations

import struct
from dataclasses import dataclass

import pytest

from repro.common.errors import (
    BadFrameMagic,
    ConfigurationError,
    MalformedWirePayload,
    NonCanonicalPayload,
    OversizedFrame,
    TruncatedFrame,
    UnencodableWirePayload,
    UnknownWireClass,
    UnsupportedWireVersion,
    WireError,
)
from repro.common.types import RequestId
from repro.crypto.digest import canonical_bytes, digest
from repro.execution.state_machine import Operation
from repro.net.network import Envelope
from repro.net.wire import (
    FLAG_ENVELOPE,
    FLAG_PICKLE,
    HEADER,
    HEADER_SIZE,
    MAX_DECODE_DEPTH,
    WIRE_MAGIC,
    WIRE_VERSION,
    WireCodec,
    WireRegistry,
    decode_payload,
    encode_payload,
    wire_serializable,
)
from repro.protocols.messages import ClientRequest, RequestBatch


def _request(number: int = 1) -> ClientRequest:
    return ClientRequest(
        request_id=RequestId(client="test-client", number=number),
        operations=(Operation(action="write", key="k", value="v"),))


def _envelope(payload: object) -> Envelope:
    return Envelope(source="a", destination="b", payload=payload,
                    sent_at=1.0, delivered_at=2.0)


_ENVELOPE_HEAD = struct.Struct(">ddHH")


def _envelope_frame(sent_at=1.0, delivered_at=2.0, source=b"a",
                    destination=b"b", payload=b"\x05\x01x", flags=FLAG_ENVELOPE,
                    lengths=None) -> bytes:
    """A FLAG_ENVELOPE frame spelled out byte by byte."""
    lengths = (len(source), len(destination)) if lengths is None else lengths
    body = (_ENVELOPE_HEAD.pack(sent_at, delivered_at, *lengths) + source
            + destination + payload)
    return HEADER.pack(WIRE_MAGIC, WIRE_VERSION, flags, len(body)) + body


# ---------------------------------------------------------------- round trips
class TestRoundTrips:
    @pytest.mark.parametrize("value", [
        None, True, False, 0, 1, -1, 10**40, -(10**40), 0.0, 1.5, -2.25,
        "", "hello", "ünïcode ✓", b"", b"\x00\xff" * 10,
        [], [1, "two", b"three", None], {"k": "v", "n": 3},
        {1: [2, {3: 4}]}, set(), {1, 2, 3}, frozenset({"a", "b"}),
    ])
    def test_plain_values(self, value):
        codec = WireCodec()
        decoded = codec.decode_frame(codec.encode_frame(value))
        assert decoded == value

    def test_nested_message(self):
        codec = WireCodec()
        batch = RequestBatch(requests=(_request(1), _request(2)))
        env = _envelope(batch)
        decoded = codec.decode_frame(codec.encode_frame(env))
        assert decoded == env
        # declared field types are restored, not the encoder's collapsed ones
        assert isinstance(decoded.payload.requests, tuple)
        assert isinstance(decoded.payload.requests[0].operations, tuple)

    def test_decoded_instance_digests_identically(self):
        codec = WireCodec()
        request = _request()
        decoded = codec.decode_frame(codec.encode_frame(request))
        assert canonical_bytes(decoded) == canonical_bytes(request)
        assert digest(decoded) == digest(request)

    def test_decode_pins_canonical_cache(self):
        from repro.crypto.digest import _CANONICAL_CACHE

        codec = WireCodec()
        request = _request()
        frame = codec.encode_frame(request)
        decoded = codec.decode_frame(frame)
        # the received wire slice doubles as the canonical-encoding cache:
        # the receiver never re-encodes what the sender already encoded
        assert getattr(decoded, _CANONICAL_CACHE) == frame[HEADER_SIZE:]

    def test_sets_inside_payload(self):
        codec = WireCodec()
        decoded = codec.decode_frame(codec.encode_frame({"s": {1, "x"}}))
        assert decoded == {"s": {1, "x"}}

    def test_set_members_of_every_length_and_type(self):
        # members cross in ascending order of their encoded bytes, whatever
        # their type, length or insertion order
        codec = WireCodec()
        for value in ({"s"}, {"1"}, {"s", "1", "11"}, {""}, {1, "1", b"1"},
                      {-1, 1, 300, -300}):
            assert codec.decode_frame(codec.encode_frame(value)) == value


# ------------------------------------------------------------ framing errors
class TestMalformedFrames:
    def _frame(self, payload: bytes, magic=WIRE_MAGIC, version=WIRE_VERSION,
               flags=0, length=None) -> bytes:
        length = len(payload) if length is None else length
        return HEADER.pack(magic, version, flags, length) + payload

    def test_truncated_header(self):
        with pytest.raises(TruncatedFrame):
            WireCodec().decode_frame(b"RB\x01")

    def test_truncated_payload(self):
        frame = self._frame(encode_payload("hello"), length=1000)
        with pytest.raises(TruncatedFrame):
            WireCodec().decode_frame(frame)

    def test_bad_magic(self):
        frame = self._frame(encode_payload("x"), magic=b"ZZ")
        with pytest.raises(BadFrameMagic):
            WireCodec().decode_frame(frame)

    def test_unknown_version(self):
        frame = self._frame(encode_payload("x"), version=WIRE_VERSION + 1)
        with pytest.raises(UnsupportedWireVersion):
            WireCodec().decode_frame(frame)

    @pytest.mark.parametrize("flags", [0x80, 0x02, 0x02 | FLAG_ENVELOPE])
    def test_unknown_flags(self, flags):
        # Bit 1 opened a trace-context block up to v3; v4 knows it no more.
        frame = self._frame(encode_payload("x"), flags=flags)
        with pytest.raises(MalformedWirePayload, match="unknown frame flags"):
            WireCodec().decode_frame(frame)

    def test_oversize_length_rejected_from_header_alone(self):
        # a corrupt header claiming 4 GiB must be rejected before any
        # payload allocation — parse_header sees only the 8 header bytes
        header = HEADER.pack(WIRE_MAGIC, WIRE_VERSION, 0, 2**32 - 1)
        with pytest.raises(OversizedFrame):
            WireCodec().parse_header(header)

    def test_oversize_outgoing_frame(self):
        codec = WireCodec(max_frame_bytes=64)
        with pytest.raises(OversizedFrame):
            codec.encode_frame("x" * 100)

    def test_unknown_class(self):
        with pytest.raises(UnknownWireClass):
            decode_payload(b"\xee\x05\x01x")

    def test_every_malformed_case_is_a_wire_error(self):
        codec = WireCodec()
        cases = [
            b"",                                  # empty frame
            b"RB",                                # truncated header
            self._frame(b"", magic=b"XX"),        # bad magic
            self._frame(b"", version=99),         # unknown version
            self._frame(b"\x03\x80\x00"),        # non-minimal varint
            self._frame(b"\x03\xff"),            # varint cut short
            self._frame(b"\x03" + b"\xff" * 70), # varint past the cap
            self._frame(b"\x04\x00\x00"),        # truncated double
            self._frame(b"\x05\x05ab"),          # truncated string body
            self._frame(b"\x05\x02ab" + b"junk"), # trailing bytes
            self._frame(b"\x07\x02\x00"),        # list short of its count
            self._frame(b"\x09\x01\x05\x01a"),   # dict key without a value
            self._frame(b"\x0a"),                # unknown value tag
            self._frame(b"\x09\x01\x07\x00\x02"),  # unhashable dict key
        ]
        # an envelope frame cut at every point inside its head and names
        good = WireCodec().encode_frame(
            Envelope("src", "dst", "x", 1.5, 2.25))
        names_end = HEADER_SIZE + _ENVELOPE_HEAD.size + 6
        cases += [
            self._frame(good[HEADER_SIZE:cut], flags=FLAG_ENVELOPE)
            for cut in range(HEADER_SIZE, names_end + 1)]
        # address lengths that run past the end of the frame
        cases += [_envelope_frame(lengths=lengths) for lengths in (
            (5, 1), (1, 5), (0xFFFF, 0), (0, 0xFFFF), (0xFFFF, 0xFFFF))]
        for frame in cases:
            with pytest.raises(WireError):
                codec.decode_frame(frame)

    def test_depth_bomb(self):
        payload = b"\x07\x01" * (MAX_DECODE_DEPTH + 10) + b"\x00"
        with pytest.raises(MalformedWirePayload, match="nest deeper"):
            decode_payload(payload)

    def test_declared_record_with_another_tag_is_rejected(self):
        # strict decoding: a field declared RequestId holds a RequestId
        # record, whatever else the bytes after the tag could spell
        good = canonical_bytes(ClientRequest(RequestId("c", 1), ()))
        assert good[:2] == b"\x20\x10"
        with pytest.raises(MalformedWirePayload, match="RequestId record"):
            decode_payload(good[:1] + b"\x13" + good[2:])

    @pytest.mark.parametrize("padded", [
        b"\x10\x88\x00client-0\x0e",   # string length
        b"\x10\x08client-0\x8e\x00",   # integer field
        b"\x05\x80\x00", b"\x06\x81\x00x", b"\x07\x80\x00",
        b"\x03\x8e\x80\x00",
    ])
    def test_non_minimal_varints_rejected(self, padded):
        # A padded varint names the same number, so accepting it would hand
        # two receivers equal values whose pinned encodings — and therefore
        # digests — differ: every decodable payload has exactly one spelling.
        with pytest.raises(NonCanonicalPayload):
            decode_payload(padded)

    def test_accepted_payload_reencodes_to_itself(self):
        honest = RequestId("client-0", 7)
        payload = b"\x10\x08client-0\x0e"
        decoded = decode_payload(payload)
        assert decoded == honest
        assert canonical_bytes(decoded) == payload
        assert canonical_bytes(decoded, use_cache=False) == payload
        assert digest(decoded) == digest(honest)

    def test_unencodable_payload(self):
        with pytest.raises(UnencodableWirePayload):
            WireCodec().encode_frame(object())


# -------------------------------------------------------- envelope head
class TestEnvelopeHead:
    def test_spelled_out_frame_decodes(self):
        # the control for the refusals below: the same bytes, untouched
        assert WireCodec().decode_frame(_envelope_frame()) == \
            Envelope("a", "b", "x", 1.0, 2.0)

    @pytest.mark.parametrize("times", [
        (float("nan"), 2.0), (1.0, float("nan")), (float("inf"), 2.0),
        (1.0, float("-inf")), (float("-inf"), float("inf")),
    ])
    def test_non_finite_times_are_refused(self, times):
        with pytest.raises(MalformedWirePayload, match="non-finite"):
            WireCodec().decode_frame(_envelope_frame(*times))

    @pytest.mark.parametrize("names", [
        (b"\xff", b"b"), (b"a", b"\xc3"), (b"\xed\xa0\x80", b"b"),
    ])
    def test_invalid_utf8_addresses_are_refused(self, names):
        with pytest.raises(MalformedWirePayload, match="utf-8"):
            WireCodec().decode_frame(_envelope_frame(source=names[0],
                                                     destination=names[1]))

    def test_canonical_envelope_without_the_flag_is_refused(self):
        # One spelling per envelope: the canonical form is for envelopes
        # nested inside values, never for the one a frame carries.
        payload = canonical_bytes(_envelope("x"))
        frame = HEADER.pack(WIRE_MAGIC, WIRE_VERSION, 0,
                            len(payload)) + payload
        with pytest.raises(MalformedWirePayload, match="FLAG_ENVELOPE"):
            WireCodec().decode_frame(frame)
        # nested, it is an ordinary value
        nested = [_envelope("x")]
        codec = WireCodec()
        assert codec.decode_frame(codec.encode_frame(nested)) == nested

    @pytest.mark.parametrize("field", ["source", "destination"])
    def test_oversized_address_is_unencodable(self, field):
        names = {"source": "a", "destination": "b", field: "x" * 65_536}
        envelope = Envelope(payload="x", sent_at=1.0, delivered_at=2.0,
                            **names)
        with pytest.raises(UnencodableWirePayload, match="65535"):
            WireCodec().encode_frame(envelope)
        # one byte under the cap still crosses
        names[field] = "x" * 65_535
        fits = Envelope(payload="x", sent_at=1.0, delivered_at=2.0, **names)
        codec = WireCodec()
        assert codec.decode_frame(codec.encode_frame(fits)) == fits


# ------------------------------------------------------------------ registry
class TestRegistry:
    def test_name_collision_rejected(self):
        registry = WireRegistry({"Thing": 0xF0})

        @dataclass(frozen=True)
        class Thing:
            x: int

        registry.register(Thing)
        registry.register(Thing)  # re-registering the same class is fine
        first = Thing

        @dataclass(frozen=True)
        class Thing:  # noqa: F811 — the collision is the point
            y: int

        with pytest.raises(ConfigurationError):
            registry.register(Thing)
        assert registry.registered_classes()["Thing"] is first

    def test_non_dataclass_rejected(self):
        with pytest.raises(TypeError):
            WireRegistry().register(dict)

    def test_custom_registry_round_trip(self):
        registry = WireRegistry({"Point": 0xF1})

        @dataclass(frozen=True)
        class Point:
            x: int
            y: int

        registry.register(Point)
        codec = WireCodec(registry=registry)
        assert codec.decode_frame(codec.encode_frame(Point(3, 4))) == Point(3, 4)

    def test_wire_serializable_returns_class(self):
        assert wire_serializable(RequestId) is RequestId

    def test_a_class_needs_a_pinned_tag(self):
        @dataclass(frozen=True)
        class _Probe:
            n: int

        with pytest.raises(ConfigurationError, match="no class tag"):
            wire_serializable(_Probe)
        with pytest.raises(UnencodableWirePayload, match="class tag"):
            encode_payload(_Probe(1))
        with pytest.raises(ConfigurationError, match="share"):
            WireRegistry({"A": 0x20, "B": 0x20})

    def test_a_class_keeps_one_tag_across_registries(self):
        with pytest.raises(ConfigurationError, match="already has"):
            WireRegistry({"RequestId": 0xF2}).register(RequestId)

    def test_typed_fields_refuse_other_types(self):
        with pytest.raises(UnencodableWirePayload, match="declared int"):
            encode_payload(RequestId("c", "1"))
        with pytest.raises(UnencodableWirePayload, match="declared str"):
            encode_payload(RequestId(b"c", 1))


# ------------------------------------------------------- reserved pickle flag
class TestPickleEscapeHatch:
    def test_default_codec_refuses_pickled_frames(self):
        # The escape hatch is gone; its flag bit stays reserved, and a frame
        # that sets it (an old peer) is refused before any byte is parsed.
        payload = encode_payload(_envelope("x"))
        frame = HEADER.pack(WIRE_MAGIC, WIRE_VERSION, FLAG_PICKLE,
                            len(payload)) + payload
        flags, _ = WireCodec().parse_header(frame)
        assert flags & FLAG_PICKLE
        with pytest.raises(MalformedWirePayload):
            WireCodec().decode_frame(frame)


# ----------------------------------------------------------------- contracts
class TestFrameLayout:
    def test_header_layout_is_pinned(self):
        # README documents this layout; changing it is a WIRE_VERSION bump
        assert WIRE_MAGIC == b"RB"
        assert WIRE_VERSION == 4
        assert FLAG_ENVELOPE == 0x04
        assert HEADER_SIZE == 8
        assert HEADER.format == ">2sBBI"

    def test_frame_is_header_plus_canonical_payload(self):
        request = _request()
        frame = WireCodec().encode_frame(request)
        assert frame[:2] == WIRE_MAGIC
        assert frame[2] == WIRE_VERSION
        assert frame[3] == 0
        assert frame[HEADER_SIZE:] == canonical_bytes(request)
        length = struct.unpack(">I", frame[4:8])[0]
        assert length == len(frame) - HEADER_SIZE

    def test_envelope_frame_is_header_head_names_payload(self):
        env = Envelope("src", "replica-1", _request(), 1.5, 2.25)
        frame = WireCodec().encode_frame(env)
        assert frame[:3] == WIRE_MAGIC + bytes((WIRE_VERSION,))
        assert frame[3] == FLAG_ENVELOPE
        head = HEADER_SIZE + _ENVELOPE_HEAD.size
        assert frame[HEADER_SIZE:head] == _ENVELOPE_HEAD.pack(1.5, 2.25, 3, 9)
        assert frame[head:head + 12] == b"srcreplica-1"
        assert frame[head + 12:] == canonical_bytes(env.payload)
        length = struct.unpack(">I", frame[4:8])[0]
        assert length == len(frame) - HEADER_SIZE

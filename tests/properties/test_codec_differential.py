"""Differential tests: the generated codec against independent references.

The per-class encoders and decoders are generated code, so nothing about
them is taken on trust.  Encoders are compared with ``reference_bytes``
below — the canonical encoding written out as the plain recursive
definition, sharing no code with :mod:`repro.crypto.digest`.  Decoders are
compared with the strict recursive-descent parser (``_Decoder`` without
``fast``), which is also what they fall back to: on every input, well formed
or hostile, ``decode_payload`` must give the value the strict parser gives
or raise the error it raises, pin the same bytes, and never take more than
linear time.
"""

from __future__ import annotations

import enum
import pathlib
import re
import time
from dataclasses import dataclass, fields, is_dataclass
from typing import Optional

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.common.errors import (
    MalformedWirePayload,
    UnknownWireClass,
    WireError,
)
from repro.crypto.digest import (
    _CANONICAL_CACHE,
    canonical_bytes,
    class_fields,
    optional_of,
    tuple_of,
)
from repro.net.network import Envelope
from repro.net.wire import (
    FLAG_ENVELOPE,
    HEADER_SIZE,
    MAX_DECODE_DEPTH,
    WIRE_REGISTRY,
    WireCodec,
    WireRegistry,
    _Decoder,
    _FastPathMiss,
    decode_payload,
    ensure_default_registrations,
)
from repro.protocols.messages import ClientRequest, signed_part_bytes

ensure_default_registrations()
CLASSES = WIRE_REGISTRY.registered_classes()
GOLDEN_DIR = pathlib.Path(__file__).resolve().parents[1] / "golden" / "wire"
prop_settings = settings(max_examples=60, deadline=None,
                         suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------------------
# the reference encoder: the format's definition, nothing shared
# ---------------------------------------------------------------------------
def _token(tag: bytes, body: bytes) -> bytes:
    return tag + str(len(body)).encode() + b":" + body


def reference_bytes(value, field_order=None) -> bytes:
    if value is None:
        return b"N"
    if isinstance(value, bool):
        return b"T" if value else b"F"
    if isinstance(value, int):
        return _token(b"i", str(value).encode())
    if isinstance(value, float):
        return _token(b"f", repr(value).encode())
    if isinstance(value, str):
        return _token(b"s", value.encode())
    if isinstance(value, bytes):
        return _token(b"b", value)
    if is_dataclass(value):
        names = [f.name for f in fields(value)]
        if field_order is not None:
            names = field_order(names)
        return (_token(b"D", type(value).__name__.encode())
                + b"".join(_token(b"s", name.encode())
                           + reference_bytes(getattr(value, name))
                           for name in names) + b"d")
    if isinstance(value, dict):
        keys = sorted(value, key=lambda k: (type(k).__name__, repr(k)))
        return b"M" + b"".join(reference_bytes(k) + reference_bytes(value[k])
                               for k in keys) + b"m"
    if isinstance(value, (list, tuple)):
        return b"L" + b"".join(map(reference_bytes, value)) + b"l"
    if isinstance(value, (set, frozenset)):
        members = sorted(value, key=lambda k: (type(k).__name__, repr(k)))
        return b"S" + b"".join(map(reference_bytes, members)) + b"s"
    raise TypeError(type(value))


# ---------------------------------------------------------------------------
# strategies: every registered class, from its own type hints
# ---------------------------------------------------------------------------
class Colour(enum.IntEnum):
    RED = 1
    GREEN = 20


names = st.sampled_from(["replica-0", "client-17", "tc/replica-2", "write", ""])
tidy_ints = st.integers(min_value=0, max_value=10**9 - 1)
#: what the hints promise and real traffic carries: the generated decoders
#: must take these without falling back.
TIDY = {
    int: tidy_ints,
    str: st.one_of(names, st.text(
        st.characters(blacklist_characters=":", blacklist_categories=["Cs"]),
        max_size=12)),
    bytes: st.binary(min_size=32, max_size=32),
    bool: st.booleans(),
    float: st.floats(allow_nan=False),
}
#: what the hints cannot rule out: hints are documentation, not a contract.
WILD = {
    int: st.one_of(tidy_ints, st.integers(), st.integers(min_value=10**9),
                   st.booleans(), st.sampled_from(list(Colour)), names),
    str: st.one_of(names, st.text(max_size=12), st.just("a:b::c"),
                   st.just("s6:numberi1:7d")),
    bytes: st.one_of(st.binary(min_size=32, max_size=32),
                     st.binary(max_size=40), st.just(b"32:" * 11)),
    bool: st.one_of(st.booleans(), st.integers(0, 1), st.none()),
    float: st.one_of(st.floats(allow_nan=False), st.integers(-5, 5)),
}
plain_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=8),
              st.floats(allow_nan=False), st.binary(max_size=8)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=4), inner, max_size=3),
        st.frozensets(st.integers(), max_size=3)),
    max_leaves=6)


def _value_strategy(hint, scalars, depth):
    if hint in scalars:
        return scalars[hint]
    if optional_of(hint) is not None:
        return st.one_of(st.none(),
                         _value_strategy(optional_of(hint), scalars, depth))
    if tuple_of(hint) is not None:
        return st.lists(_value_strategy(tuple_of(hint), scalars, depth),
                        max_size=3).map(tuple)
    if isinstance(hint, type) and is_dataclass(hint):
        return instances(hint, scalars, depth)
    # ``object`` fields: plain data, or (one level of) any other message.
    if depth >= 1:
        return plain_values
    return st.one_of(plain_values, st.sampled_from(sorted(CLASSES)).flatmap(
        lambda name: instances(CLASSES[name], scalars, depth + 1)))


def instances(cls, scalars=WILD, depth=0):
    return st.builds(cls, **{
        attr: _value_strategy(hint, scalars, depth)
        for attr, hint in class_fields(cls)})


any_instance = st.sampled_from(sorted(CLASSES)).flatmap(
    lambda name: instances(CLASSES[name]))
tidy_instance = st.sampled_from(sorted(CLASSES)).flatmap(
    lambda name: instances(CLASSES[name], TIDY))


# ---------------------------------------------------------------------------
# helpers: the two decode paths, and what they pin
# ---------------------------------------------------------------------------
def strict_decode(payload: bytes, registry=WIRE_REGISTRY):
    return _Decoder(payload, registry).decode()


def fast_decode(payload: bytes, registry=WIRE_REGISTRY):
    return _Decoder(payload, registry, fast=True).decode()


def outcome(decode, payload, registry=WIRE_REGISTRY):
    try:
        return ("value", decode(payload, registry))
    except WireError as exc:
        return (type(exc), str(exc))


def pins(value) -> list:
    """Every pinned encoding under ``value``, in traversal order."""
    found = []
    if is_dataclass(value):
        found.append(getattr(value, "__dict__", {}).get(_CANONICAL_CACHE))
        for f in fields(value):
            found.extend(pins(getattr(value, f.name)))
    elif isinstance(value, (list, tuple)):
        for item in value:
            found.extend(pins(item))
    elif isinstance(value, dict):
        for key in value:
            found.extend(pins(value[key]))
    return found


def assert_paths_agree(payload: bytes, registry=WIRE_REGISTRY):
    """``decode_payload`` is the strict parser, only faster; returns both."""
    strict = outcome(strict_decode, payload, registry)
    public = outcome(decode_payload, payload, registry)
    assert public == strict
    try:
        fast = fast_decode(payload, registry)
    except (_FastPathMiss, WireError):
        fast = None     # declined, or failed exactly as ``public`` did
    else:
        assert strict == ("value", fast)
    if strict[0] == "value":
        # An accepted payload has exactly one spelling: its own.
        assert canonical_bytes(public[1]) == payload
        assert canonical_bytes(public[1], use_cache=False) == payload
        assert pins(public[1]) == pins(strict[1])
        if fast is not None:
            assert pins(fast) == pins(strict[1])
    return strict, fast


def golden_payloads() -> dict:
    """The canonical payload of every untraced golden vector.

    That is the frame body, except for the ``Envelope`` frame: a top-level
    envelope crosses in the binary-head form (``FLAG_ENVELOPE``), so its
    entry is the canonical bytes of the golden instance the frame decodes
    to.  Canonical envelopes, the form nested ones take, keep their
    differential coverage that way.
    """
    payloads = {}
    for path in sorted(GOLDEN_DIR.glob("*.bin")):
        if path.name.endswith(".traced.bin"):
            continue
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
@prop_settings
@given(any_instance)
def test_generated_encoders_match_the_reference(instance):
    expected = reference_bytes(instance)
    assert canonical_bytes(instance, use_cache=False) == expected
    assert canonical_bytes(instance) == expected          # fills the caches
    assert canonical_bytes(instance) == expected          # reads them
    assert canonical_bytes(instance, use_cache=False) == expected
    # inside an enclosing value, with the nested caches now warm
    assert canonical_bytes([instance, {"k": instance}]) == \
        reference_bytes([instance, {"k": instance}])


@prop_settings
@given(any_instance)
def test_signed_parts_and_payload_digests_match_the_reference(instance):
    import hashlib

    if hasattr(instance, "signed_part"):
        assert signed_part_bytes(instance) == \
            reference_bytes(instance.signed_part())
        assert signed_part_bytes(instance) == \
            reference_bytes(instance.signed_part())
    if isinstance(instance, ClientRequest):
        assert instance.payload_digest() == hashlib.sha256(reference_bytes(
            {"request_id": instance.request_id,
             "operations": instance.operations})).digest()


def test_every_registered_class_encodes_through_a_generated_encoder():
    from repro.crypto.digest import _DISPATCH

    for cls in CLASSES.values():
        canonical_bytes(tidy_example(cls))
        assert _DISPATCH[cls].__code__.co_filename.startswith(
            "<generated encoder")


# ---------------------------------------------------------------------------
# decoders
# ---------------------------------------------------------------------------
@prop_settings
@given(any_instance)
def test_generated_decoders_match_the_strict_parser(instance):
    assert_paths_agree(reference_bytes(instance))


@prop_settings
@given(tidy_instance)
def test_tidy_instances_never_leave_the_fast_path(instance):
    payload = reference_bytes(instance)
    strict, fast = assert_paths_agree(payload)
    assert strict == ("value", instance)
    assert fast == instance, "the generated decoder declined a tidy payload"


def tidy_example(hint):
    """One fixed instance of ``hint`` with every field as its hint says."""
    if hint in _TIDY_EXAMPLES:
        return _TIDY_EXAMPLES[hint]
    if optional_of(hint) is not None:
        return tidy_example(optional_of(hint))
    if tuple_of(hint) is not None:
        return (tidy_example(tuple_of(hint)),)
    if isinstance(hint, type) and is_dataclass(hint):
        return hint(**{attr: tidy_example(field_hint)
                       for attr, field_hint in class_fields(hint)})
    return {"plain": ["data", 1]}


_TIDY_EXAMPLES = {int: 7, str: "replica-1", bytes: b"\x07" * 32, bool: True,
                  float: 2.5}


@pytest.mark.parametrize("name", sorted(golden_payloads()))
def test_golden_vectors_through_both_paths(name):
    payload = golden_payloads()[name]
    strict, _ = assert_paths_agree(payload)
    assert strict[0] == "value"
    assert reference_bytes(strict[1]) == payload
    # and framed in an Envelope, as they cross the wire
    assert_paths_agree(reference_bytes(
        Envelope("a", "b", strict[1], 1.5, 2.25)))


# ---------------------------------------------------------------------------
# mutated frames
# ---------------------------------------------------------------------------
def _mutations(payload: bytes):
    for cut in range(len(payload)):
        yield payload[:cut]
    for offset in range(len(payload)):
        for flipped in (payload[offset] ^ 0x01, ord(":"), ord("0")):
            if flipped != payload[offset]:
                yield payload[:offset] + bytes((flipped,)) + payload[offset + 1:]
    for match in re.finditer(rb"[sbifD](\d+):", payload):
        for padding in (b"0", b"00"):
            yield payload[:match.start(1)] + padding + payload[match.start(1):]
        yield payload[:match.start(1)] + b"+" + payload[match.start(1):]


def mutation_subjects() -> dict:
    """Golden vectors (string replica ids: mostly declined by the generated
    decoders) and tidy instances in an Envelope (taken by them)."""
    subjects = {f"golden-{name}": payload
                for name, payload in golden_payloads().items()}
    for name, cls in CLASSES.items():
        subjects[f"tidy-{name}"] = reference_bytes(
            Envelope("replica-0", "replica-1", tidy_example(cls), 1.5, 2.25))
    return subjects


@pytest.mark.parametrize("name", sorted(mutation_subjects()))
def test_mutated_frames_fail_or_decode_identically(name):
    payload = mutation_subjects()[name]
    assert_paths_agree(payload)
    accepted = 0
    for mutated in _mutations(payload):
        strict, _ = assert_paths_agree(mutated)
        accepted += strict[0] == "value"
    # flipping a byte inside a string or digest body still decodes; cutting
    # or padding never does
    assert accepted < len(payload) * 3


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_swapped_fields_are_rejected_by_both_paths(name):
    instance = tidy_example(CLASSES[name])
    if len(fields(instance)) < 2:
        return
    swapped = reference_bytes(
        instance, field_order=lambda names: [names[1], names[0]] + names[2:])
    strict, _ = assert_paths_agree(swapped)
    assert strict[0] is MalformedWirePayload


def test_nesting_ceiling_is_the_same_on_both_paths():
    def nested(levels):
        value = "core"
        for _ in range(levels):
            value = Envelope("a", "b", value, 1.0, 2.0)
        return reference_bytes(value)

    for levels in (1, 20, MAX_DECODE_DEPTH - 2, MAX_DECODE_DEPTH - 1,
                   MAX_DECODE_DEPTH, MAX_DECODE_DEPTH + 6):
        strict, _ = assert_paths_agree(nested(levels))
        assert (strict[0] == "value") == (levels < MAX_DECODE_DEPTH)


# ---------------------------------------------------------------------------
# hostile sizes: decode stays linear
# ---------------------------------------------------------------------------
def _decode_seconds(payload: bytes) -> float:
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        try:
            decode_payload(payload)
        except WireError:
            pass
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.parametrize("build", [
    # thousands of field-name literals inside a string body: every one is a
    # place a backtracking pattern could try to resume from
    lambda size: reference_bytes(Envelope(
        "s11:destination" * (size // 15), "b", None, 1.0, 2.0)),
    # the same body, then a frame that is broken after it
    lambda size: reference_bytes(Envelope(
        "s11:destination" * (size // 15), "b", None, 1.0, 2.0))[:-9] + b"x" * 9,
    # a colon-free body (the fast path's own case) followed by the wrong
    # field: the pattern must give up once, not once per byte squared
    lambda size: reference_bytes(Envelope(
        "d" * size, "b", None, 1.0, 2.0)).replace(b"s11:dest", b"s11:tsed"),
    # many small well-typed records, each ending where the next begins
    lambda size: reference_bytes(Envelope("a", "b", tuple(
        CLASSES["Operation"]("s5:value", "d" * 20, "ddd")
        for _ in range(size // 80)), 1.0, 2.0)),
    # deep and wide at once: each level's decoder must not redo its children
    lambda size: reference_bytes(_nest(size)),
])
def test_decode_time_is_proportional_to_frame_size(build):
    quarter, full = build(250_000), build(1_000_000)
    assert 3.5 < len(full) / len(quarter) < 4.5
    _decode_seconds(quarter)  # generate the decoders outside the timing
    # 20 ms of slack for allocator effects on frames that decode in
    # microseconds; a pattern that backtracks per literal takes seconds.
    assert _decode_seconds(full) < 6 * _decode_seconds(quarter) + 0.02


def _nest(size: int):
    # The generated decoders take forty levels, then meet a string they
    # decline at the innermost one.
    value = Envelope("declined:", "b", None, 1.0, 2.0)
    for _ in range(40):
        value = Envelope("x" * (size // 40), "b", value, 1.0, 2.0)
    return value


# ---------------------------------------------------------------------------
# custom registries
# ---------------------------------------------------------------------------
CUSTOM = WireRegistry()


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
    for value in values:
        frame = codec.encode_frame(value)
        assert frame[HEADER_SIZE:] == reference_bytes(value)
        assert codec.decode_frame(frame) == value
        strict, fast = assert_paths_agree(frame[HEADER_SIZE:], CUSTOM)
        assert strict == ("value", value)
        # only the negative, thirteen-digit, colon-bearing Point is declined
        assert (fast is None) == (value == values[1])
    # a constructor that objects, and a class this registry never met, fail
    # with the strict parser's typed errors
    strict, _ = assert_paths_agree(
        reference_bytes(Checked(7)).replace(b"i1:7", b"i2:13"), CUSTOM)
    assert strict[0] is MalformedWirePayload
    strict, _ = assert_paths_agree(
        reference_bytes(Holder(Stranger(1))), CUSTOM)
    assert strict[0] is UnknownWireClass
    # and the default registry knows none of these
    assert outcome(decode_payload, reference_bytes(Point(3, 4)))[0] \
        is UnknownWireClass

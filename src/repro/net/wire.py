"""Versioned binary wire protocol over the canonical encoding.

Replicas already agree on one deterministic byte encoding of every protocol
value — the canonical bytes of :mod:`repro.crypto.digest` that back the
paper's ``Δ := Hash(⟨T⟩c)`` digest discipline.  This module frames those
bytes and decodes them back into the dataclasses they came from.

Frame layout (big-endian)::

    offset  size  field
    0       2     magic       b"RB"
    2       1     version     WIRE_VERSION (currently 4)
    3       1     flags       bit 0: reserved (once a pickled payload; a
                              frame that sets it is refused)
                              bit 1: reserved (a trace-context block up to
                              v3; a frame that sets it is refused)
                              bit 2: the payload is an Envelope with a
                              binary head (FLAG_ENVELOPE)
    4       4     length      payload byte count, <= the enforced max frame

A frame carries no trace context: a traced receiver takes a message's
trace id from the request id in its payload (see :mod:`repro.obsv.trace`).

An :class:`~repro.net.network.Envelope` — what every message on a live
transport travels in — is framed with ``FLAG_ENVELOPE``: the payload is a
fixed ``>ddHH`` head (``sent_at``, ``delivered_at``, source byte length,
destination byte length), the utf-8 source and destination, and then
``canonical_bytes(envelope.payload)``.  The head is
decoded strictly too: a truncated head, addresses that run past the frame,
invalid utf-8 and non-finite times are all :class:`MalformedWirePayload`.
An ``Envelope`` has that one spelling at the top of a frame: a frame
without the flag whose payload decodes to an ``Envelope`` is refused.
Nested envelopes, and every other value, stay canonical bytes.

Every other payload is exactly ``canonical_bytes(value)``.  Since v3 that
encoding is positional (the layout is in :mod:`repro.crypto.digest`): a
record is its class's one-byte tag and then its fields in declaration
order, without names, each spelled as its type hint declares; a value
outside a declared field carries a one-byte type tag.  The class tags of
the default registry are pinned in :data:`DEFAULT_CLASS_TAGS`::

    0x10 RequestId      0x20 ClientRequest      0x30 PrePrepare
    0x11 Operation      0x21 RequestBatch       0x31 Prepare
    0x12 OperationResult 0x22 Response         0x32 Commit
    0x13 Signature      0x23 ResendRequest      0x40 Checkpoint
    0x14 Mac            0x24 CommitCertificate  0x41 ViewChange
    0x15 Attestation    0x25 CommitAck          0x42 NewView
    0x16 Envelope                               0x43 PreparedProof
    0x44 CheckpointRequest  0x45 CheckpointReply
    0x46 LogFill            0x47 LogFillEntry

The encoding has one spelling per value, and the decoder accepts nothing
else: varints must be minimal, bool and presence bytes 0 or 1, strings
valid utf-8, NaN the one NaN, set members and dict keys strictly ascending
by their encoded bytes (so no duplicates), and the payload consumed
exactly.  Every record the decoder accepts therefore re-encodes to the
received slice, which is pinned as the instance's canonical-encoding cache
— digests and signatures over a received message reuse what the sender
computed, and framing costs no second serialiser.

Decoding needs a **registry** (:class:`WireRegistry`) mapping class tags to
classes; registration happens where message classes are defined
(``@wire_serializable`` in :mod:`repro.protocols.messages`), and the
substrate types (identifiers, signatures, attestations, and
:class:`~repro.net.network.Envelope` for the envelopes nested inside values)
are registered here.  Each registered class gets one decoder, generated on
its first decode from its type hints: straight-line ``struct`` and slice
reads of each field, nested records inlined, the same statements a storing
constructor runs (:meth:`~repro.crypto.digest.FunctionSource.store_fields`)
and the pin of the received slice.  The generator's only inputs are
registered classes: nothing payload-controlled is ever compiled or executed.

Every failure raises a typed :class:`~repro.common.errors.WireError`
subclass — bytes that end early :class:`TruncatedPayload`, bytes with
another spelling :class:`NonCanonicalPayload`, an unknown tag
:class:`UnknownWireClass`, anything else :class:`MalformedWirePayload`; nothing
in this module ever executes payload-controlled code, which is the point —
it replaces ``pickle.loads`` on network bytes.

Versioning rules: bump :data:`WIRE_VERSION` whenever the header layout, the
envelope head or the canonical encoding changes incompatibly; a decoder only
accepts its own version.  The golden vectors under ``tests/golden/wire/`` pin
the format, and ``benchmarks/check_wire_version.py`` fails a change that
moves them without a version bump.
"""

from __future__ import annotations

import importlib
import struct
from math import isfinite
from dataclasses import fields, is_dataclass
from typing import Any, Callable, Optional

from ..common.errors import (
    BadFrameMagic,
    ConfigurationError,
    MalformedWirePayload,
    NonCanonicalPayload,
    OversizedFrame,
    TruncatedFrame,
    TruncatedPayload,
    UnencodableWirePayload,
    UnknownWireClass,
    UnsupportedWireVersion,
)
# The decoders reuse the digest layer's view of a class (same field order,
# same resolved hints, same cache attribute), so framing and digest/signature
# memoisation stay one mechanism with one set of invariants.
from ..crypto.digest import (
    _CANONICAL_CACHE,
    FIRST_CLASS_TAG,
    MAX_VARINT_BYTES,
    TAG_BYTES,
    TAG_DICT,
    TAG_FLOAT,
    TAG_INT,
    TAG_LIST,
    TAG_STR,
    TAG_TRUE,
    FunctionSource,
    assign_class_tag,
    canonical_bytes,
    class_fields,
    constructs_by_storing,
    optional_of,
    sequence_of,
)
from .network import Envelope

#: first bytes of every frame.
WIRE_MAGIC = b"RB"
#: current wire-protocol version; decoders accept exactly this version.
WIRE_VERSION = 4
#: flags bit, reserved: it marked a pickled payload while the one-release
#: ``--unsafe-pickle`` escape hatch existed.  Nothing sets it any more and a
#: frame that does is refused with a typed error, never unpickled.
FLAG_PICKLE = 0x01
#: flags bit: the payload is an :class:`~repro.net.network.Envelope` in the
#: binary-head form (see :func:`encode_envelope`), not canonical bytes.
FLAG_ENVELOPE = 0x04
#: bit 1 (0x02), a trace-context block up to v3, is unknown and refused.
_KNOWN_FLAGS = FLAG_PICKLE | FLAG_ENVELOPE

#: frame header: magic, version, flags, payload length.
HEADER = struct.Struct(">2sBBI")
HEADER_SIZE = HEADER.size

#: default ceiling on one frame's payload.  Generous against real traffic
#: (the largest legitimate frames — checkpoint snapshots — are a few hundred
#: kilobytes) while capping what a corrupt or malicious length header can
#: make a reader buffer.
DEFAULT_MAX_FRAME_BYTES = 16 * 1024 * 1024

#: ceiling on nested records and containers: one at depth MAX_DECODE_DEPTH
#: (the top-level value is at depth 0) is refused.  Legitimate messages nest
#: ~8 deep (Envelope > NewView > PrePrepare > batch > request > op).
MAX_DECODE_DEPTH = 64

#: the pinned class tags of the default registry (see the module doc).
DEFAULT_CLASS_TAGS = {
    "RequestId": 0x10, "Operation": 0x11, "OperationResult": 0x12,
    "Signature": 0x13, "Mac": 0x14, "Attestation": 0x15, "Envelope": 0x16,
    "ClientRequest": 0x20, "RequestBatch": 0x21, "Response": 0x22,
    "ResendRequest": 0x23, "CommitCertificate": 0x24, "CommitAck": 0x25,
    "PrePrepare": 0x30, "Prepare": 0x31, "Commit": 0x32,
    "Checkpoint": 0x40, "ViewChange": 0x41, "NewView": 0x42,
    "PreparedProof": 0x43, "CheckpointRequest": 0x44,
    "CheckpointReply": 0x45, "LogFill": 0x46, "LogFillEntry": 0x47,
}


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
class _RegisteredClass:
    """One decodable dataclass, its tag and its lazily generated decoder."""

    __slots__ = ("cls", "tag", "cacheable", "decode")

    def __init__(self, cls: type, tag: int) -> None:
        self.cls = cls
        self.tag = tag
        self.cacheable = bool(getattr(cls, "__canonical_cacheable__", False))
        #: ``decode(data, pos, depth) -> (instance, end)`` for a record whose
        #: tag is at ``pos`` (see :func:`_generated_decoder`).
        self.decode: Optional[Callable] = None


class WireRegistry:
    """Class tag -> dataclass mapping the decoder resolves records against.

    Registering a new message class is one line at its definition, plus its
    tag in the registry's table (:data:`DEFAULT_CLASS_TAGS` for the default
    registry)::

        @wire_serializable
        @canonical_cacheable
        @dataclass(frozen=True)
        class MyMessage: ...

    Tags are unique within a registry, and a class keeps one tag across
    registries: the canonical encoding names a record by its tag alone.
    """

    def __init__(self, tags: Optional[dict[str, int]] = None) -> None:
        #: class name -> tag, for the classes this registry may register.
        self.tags = dict(DEFAULT_CLASS_TAGS if tags is None else tags)
        if len(set(self.tags.values())) != len(self.tags):
            raise ConfigurationError("two classes share a wire class tag")
        self._by_name: dict[str, _RegisteredClass] = {}
        self._by_tag: dict[int, _RegisteredClass] = {}

    def register(self, cls: type) -> type:
        """Register ``cls`` for decoding; returns it (usable as decorator)."""
        if not (isinstance(cls, type) and is_dataclass(cls)):
            raise TypeError(
                f"only dataclasses can cross the wire, not {cls!r}")
        if not all(f.init for f in fields(cls)):
            raise TypeError(
                f"{cls.__name__} has init=False fields; the wire decoder "
                "reconstructs instances through __init__")
        name = cls.__name__
        existing = self._by_name.get(name)
        if existing is not None and existing.cls is not cls:
            raise ConfigurationError(
                f"wire class name collision: {name!r} is already registered "
                f"for {existing.cls.__module__}.{existing.cls.__qualname__}")
        tag = self.tags.get(name)
        if tag is None:
            raise ConfigurationError(
                f"no class tag for {name!r}; pin one in the registry's tag "
                "table (DEFAULT_CLASS_TAGS for the default registry)")
        if existing is None:
            try:
                assign_class_tag(cls, tag)
            except ValueError as exc:
                raise ConfigurationError(str(exc)) from None
            self._by_name[name] = self._by_tag[tag] = _RegisteredClass(cls, tag)
        return cls

    def entry_for_tag(self, tag: int) -> _RegisteredClass:
        """The registered entry for ``tag``; raises :class:`UnknownWireClass`."""
        entry = self._by_tag.get(tag)
        if entry is None:
            _import_default_message_modules()
            entry = self._by_tag.get(tag)
        if entry is None:
            raise UnknownWireClass(
                f"no wire class registered under tag {tag:#04x}; register it "
                "with @wire_serializable where it is defined")
        return entry

    def registered_classes(self) -> dict[str, type]:
        """Snapshot of the registered name -> class mapping."""
        return {name: entry.cls for name, entry in self._by_name.items()}


#: the default registry every codec and decorator uses.
WIRE_REGISTRY = WireRegistry()


def wire_serializable(cls: type) -> type:
    """Class decorator: make a dataclass decodable from the wire."""
    return WIRE_REGISTRY.register(cls)


#: modules whose import registers the protocol message classes; imported
#: lazily on the first unknown-tag lookup so this module never depends on
#: the protocol layer at import time.
_DEFAULT_MESSAGE_MODULES = ("repro.protocols.messages",)
_defaults_imported = False


def _import_default_message_modules() -> None:
    global _defaults_imported
    if _defaults_imported:
        return
    _defaults_imported = True
    for module in _DEFAULT_MESSAGE_MODULES:
        importlib.import_module(module)


def ensure_default_registrations() -> None:
    """Force-register the default message classes (tests, tooling)."""
    _import_default_message_modules()


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------
#: zigzag value of every one-byte varint.
_ZIGZAG = tuple((byte >> 1) ^ -(byte & 1) for byte in range(0x80))
_NAN = struct.pack(">d", float("nan"))
_unpack_double = struct.Struct(">d").unpack_from


def _uvarint(data: bytes, p: int) -> tuple[int, int]:
    """A minimal unsigned varint at ``p``; returns ``(value, end)``."""
    value = shift = 0
    for end in range(p, p + MAX_VARINT_BYTES):
        byte = data[end]
        value |= (byte & 0x7F) << shift
        if byte < 0x80:
            if byte == 0 and end > p:
                raise NonCanonicalPayload(
                    f"varint at offset {p} has a redundant zero byte")
            return value, end + 1
        shift += 7
    raise MalformedWirePayload(
        f"varint at offset {p} runs past {MAX_VARINT_BYTES} bytes")


def _varint(data: bytes, p: int) -> tuple[int, int]:
    """A zigzag-mapped int at ``p``; returns ``(value, end)``."""
    value, p = _uvarint(data, p)
    return (value >> 1) ^ -(value & 1), p


def _truncated() -> TruncatedPayload:
    return TruncatedPayload("payload ends inside a value")


def _too_deep() -> MalformedWirePayload:
    return MalformedWirePayload(
        f"records and containers nest deeper than {MAX_DECODE_DEPTH}")


def _flag_byte(byte: int, what: str) -> NonCanonicalPayload:
    return NonCanonicalPayload(f"{what} byte {byte}; only 0 and 1 spell one")


def _wrong_class(found: int, expected: type) -> MalformedWirePayload:
    return MalformedWirePayload(
        f"tag {found:#04x} where the declared {expected.__name__} record "
        "must start")


def _float(data: bytes, p: int) -> float:
    value = _unpack_double(data, p)[0]
    if value != value and data[p:p + 8] != _NAN:
        raise NonCanonicalPayload(f"NaN at offset {p} is not the one NaN")
    return value


def _members(data: bytes, p: int, depth: int, registry: WireRegistry,
             pairs: bool) -> tuple[list, int]:
    """The members (or key/value pairs) of a set or dict at ``p``."""
    count, p = _uvarint(data, p)
    if count > len(data) - p:
        raise _truncated()
    items = []
    previous = b""
    for _ in range(count):
        start = p
        member, p = _decode_value(data, p, depth + 1, registry)
        encoded = data[start:p]
        if encoded <= previous:
            raise NonCanonicalPayload(
                f"{'dict key' if pairs else 'set member'} at offset {start} "
                "is not above the one before it")
        previous = encoded
        if pairs:
            value, p = _decode_value(data, p, depth + 1, registry)
            member = (member, value)
        items.append(member)
    return items, p


def _decode_value(data: bytes, p: int, depth: int,
                  registry: WireRegistry) -> tuple[Any, int]:
    """The value at ``p`` with its type or class tag; ``(value, end)``."""
    tag = data[p]
    if tag >= FIRST_CLASS_TAG:
        entry = registry._by_tag.get(tag) or registry.entry_for_tag(tag)
        return (entry.decode or _generated_decoder(entry, registry))(
            data, p, depth)
    p += 1
    if tag == TAG_STR or tag == TAG_BYTES:
        size, p = _uvarint(data, p)
        end = p + size
        if end > len(data):
            raise _truncated()
        return (data[p:end].decode() if tag == TAG_STR else data[p:end]), end
    if tag == TAG_INT:
        return _varint(data, p)
    if tag <= TAG_TRUE:
        return (None, False, True)[tag], p
    if tag == TAG_FLOAT:
        return _float(data, p), p + 8
    if tag > TAG_DICT:
        raise MalformedWirePayload(f"unknown value tag {tag:#04x}")
    if depth >= MAX_DECODE_DEPTH:
        raise _too_deep()
    if tag == TAG_LIST:
        count, p = _uvarint(data, p)
        if count > len(data) - p:
            raise _truncated()
        items = []
        for _ in range(count):
            item, p = _decode_value(data, p, depth + 1, registry)
            items.append(item)
        return items, p
    members, p = _members(data, p, depth, registry, tag == TAG_DICT)
    try:
        value = dict(members) if tag == TAG_DICT else set(members)
    except TypeError as exc:
        raise MalformedWirePayload(f"unhashable set member or dict key: "
                                   f"{exc}") from None
    if len(value) != len(members):
        raise NonCanonicalPayload("set members or dict keys equal as values")
    return value, p


# ---------------------------------------------------------------------------
# generated per-class decoders
# ---------------------------------------------------------------------------
# A registered class's layout is static — its tag, its field order and, from
# the type hints, how each field is spelled — so each class gets one decoder,
# generated on its first decode: straight-line reads of every field (a
# one-byte varint is a table lookup, a string one slice), nested records
# inlined with their tag checked, and the instance built and pinned.  Only
# fields declared ``object`` (or any hint without a positional spelling) go
# through :func:`_decode_value`, and a record that contains itself calls its
# own decoder.  Reads past the end raise ``IndexError`` or ``struct.error``,
# which :func:`_decode_at` turns into :class:`TruncatedPayload` once, at the
# top, instead of a bounds check per byte.

class _ReaderSource(FunctionSource):
    """A decoder in the making: statements reading fields at ``p``."""

    def __init__(self, registry: WireRegistry) -> None:
        super().__init__({
            "_uvarint": _uvarint, "_varint": _varint, "_ZIGZAG": _ZIGZAG,
            "_float": _float, "_decode_value": _decode_value,
            "_registry": registry, "_truncated": _truncated,
            "_too_deep": _too_deep, "_flag_byte": _flag_byte,
            "_wrong_class": _wrong_class, "_generated": _generated_decoder,
            "_new": object.__new__, "_setattr": object.__setattr__,
            "_CACHE": _CANONICAL_CACHE, "MalformedWirePayload":
            MalformedWirePayload, "UnknownWireClass": UnknownWireClass})
        self.registry = registry
        self._names = 0

    def fresh(self, stem: str) -> str:
        self._names += 1
        return f"{stem}{self._names}"

    def length(self, indent: str, var: str) -> None:
        """Read an unsigned varint (a length or a count) into ``var``."""
        self.line(indent, f"{var} = data[p]")
        self.line(indent, f"if {var} < 128: p += 1")
        self.line(indent, f"else: {var}, p = _uvarint(data, p)")

    def field(self, indent: str, var: str, hint: Any, level: int,
              inlining: frozenset) -> None:
        """Statements reading a value hinted ``hint`` into ``var``.

        ``level`` is how far below the decoded record a record or container
        read here would sit, for the nesting ceiling.
        """
        inner = optional_of(hint)
        if inner is not None:
            self.line(indent, f"{var} = data[p]")
            self.line(indent, "p += 1")
            self.line(indent, f"if {var} == 1:")
            self.field(indent + " ", var, inner, level, inlining)
            self.line(indent, f"elif {var}: raise _flag_byte({var}, "
                              "'presence')")
            self.line(indent, f"else: {var} = None")
        elif hint is int:
            # One- and two-byte varints inline: |n| < 8192.
            high = self.fresh("_h")
            self.line(indent, f"{var} = data[p]")
            self.line(indent, f"if {var} < 128:")
            self.line(indent, " p += 1")
            self.line(indent, f" {var} = _ZIGZAG[{var}]")
            self.line(indent, "else:")
            self.line(indent, f" {high} = data[p + 1]")
            self.line(indent, f" if 0 < {high} < 128:")
            self.line(indent, f"  {var} = ({var} & 127) | ({high} << 7)")
            self.line(indent, f"  {var} = ({var} >> 1) ^ -({var} & 1)")
            self.line(indent, "  p += 2")
            self.line(indent, f" else: {var}, p = _varint(data, p)")
        elif hint is str or hint is bytes:
            size = self.fresh("_z")
            self.length(indent, size)
            self.line(indent, f"{size} += p")
            self.line(indent, f"if {size} > n: raise _truncated()")
            self.line(indent, f"{var} = data[p:{size}]"
                              + (".decode()" if hint is str else ""))
            self.line(indent, f"p = {size}")
        elif hint is bool:
            self.line(indent, f"{var} = data[p]")
            self.line(indent, "p += 1")
            self.line(indent, f"if {var} > 1: raise _flag_byte({var}, 'bool')")
            self.line(indent, f"{var} = {var} == 1")
        elif hint is float:
            self.line(indent, f"{var} = _float(data, p)")
            self.line(indent, "p += 8")
        elif sequence_of(hint) is not None:
            count, items, item = (self.fresh("_z"), self.fresh("_l"),
                                  self.fresh("_x"))
            self.line(indent, f"if depth >= {MAX_DECODE_DEPTH - level}: "
                              "raise _too_deep()")
            self.length(indent, count)
            self.line(indent, f"if {count} > n - p: raise _truncated()")
            self.line(indent, f"{items} = []")
            self.line(indent, f"for _ in range({count}):")
            self.field(indent + " ", item, sequence_of(hint), level + 1,
                       inlining)
            self.line(indent, f" {items}.append({item})")
            self.line(indent, f"{var} = tuple({items})")
        elif isinstance(hint, type) and is_dataclass(hint):
            entry = self.registry._by_name.get(hint.__name__)
            if entry is None or entry.cls is not hint:
                self.line(indent, f"raise UnknownWireClass({hint.__name__!r}"
                                  " ' is declared but not registered')")
                return
            self.line(indent, f"if data[p] != {entry.tag}: "
                              f"raise _wrong_class(data[p], {self.bind(hint)})")
            if hint in inlining:
                bound = self.bind(entry)
                self.line(indent, f"{var}, p = ({bound}.decode or _generated("
                                  f"{bound}, _registry))(data, p, "
                                  f"depth + {level})")
            else:
                self.record(indent, var, entry, level, inlining | {hint})
        else:
            self.line(indent, f"{var}, p = _decode_value(data, p, "
                              f"depth + {level}, _registry)")

    def record(self, indent: str, var: str, entry: _RegisteredClass,
               level: int, inlining: frozenset) -> None:
        """A record whose tag is at ``p``, decoded into ``var``."""
        start = self.fresh("_s")
        if level:
            self.line(indent, f"if depth >= {MAX_DECODE_DEPTH - level}: "
                              "raise _too_deep()")
        self.line(indent, f"{start} = p")
        self.line(indent, "p += 1")
        values = []
        for _, hint in class_fields(entry.cls):
            values.append(self.fresh("_v"))
            self.field(indent, values[-1], hint, level + 1, inlining)
        self.construct(indent, var, entry, values, f"data[{start}:p]")

    def construct(self, indent: str, target: str, entry: _RegisteredClass,
                  values: list, pinned: str) -> None:
        """Build ``entry``'s class from ``values``; pin its received bytes.

        A class whose constructor only stores its fields is built by the
        same statements, inline (:meth:`FunctionSource.store_fields`);
        anything else is called.
        """
        cls = self.bind(entry.cls)
        pin = pinned if entry.cacheable else None
        if constructs_by_storing(entry.cls):
            self.line(indent, f"{target} = _new({cls})")
            self.store_fields(indent, target, entry.cls, values, pin)
            return
        self.line(indent, "try:")
        self.line(indent, f" {target} = {cls}({', '.join(values)})")
        self.line(indent, "except Exception as exc:")
        self.line(indent, " raise MalformedWirePayload(f'cannot construct "
                          f"{entry.cls.__name__} from decoded fields: "
                          "{exc}') from exc")
        if pin is not None:
            self.line(indent, f"_setattr({target}, _CACHE, {pin})")


def _generated_decoder(entry: _RegisteredClass,
                       registry: WireRegistry) -> Callable:
    """``entry``'s decoder, generated on first use."""
    if entry.decode is None:
        source = _ReaderSource(registry)
        source.line("", "def decode(data, p, depth):")
        source.line(" ", f"if depth >= {MAX_DECODE_DEPTH}: raise _too_deep()")
        source.line(" ", "n = len(data)")
        source.record(" ", "value", entry, 0, frozenset((entry.cls,)))
        source.line(" ", "return value, p")
        entry.decode = source.compile(
            f"<generated decoder {entry.cls.__name__}>", "decode")
    return entry.decode


def _decode_at(data: bytes, p: int, registry: WireRegistry) -> Any:
    """The one value encoded from ``p`` to the end of ``data``."""
    try:
        entry = registry._by_tag.get(data[p])
        if entry is not None and entry.decode is not None:
            value, end = entry.decode(data, p, 0)
        else:
            value, end = _decode_value(data, p, 0, registry)
    except (IndexError, struct.error):
        raise _truncated() from None
    except UnicodeDecodeError as exc:
        raise MalformedWirePayload(f"invalid utf-8 in a string: {exc}") \
            from None
    if end != len(data):
        raise MalformedWirePayload(
            f"{len(data) - end} trailing byte(s) after the payload value")
    return value


# ---------------------------------------------------------------------------
# envelope head
# ---------------------------------------------------------------------------
#: fixed head of a FLAG_ENVELOPE payload: sent_at and delivered_at (f64),
#: source and destination byte lengths (u16); the utf-8 names follow, then
#: the canonical payload.
_ENVELOPE_HEAD = struct.Struct(">ddHH")
_ENVELOPE_HEAD_SIZE = _ENVELOPE_HEAD.size


def encode_envelope(envelope: Envelope) -> bytes:
    """The ``FLAG_ENVELOPE`` form of ``envelope``: head, names, payload."""
    try:
        source = envelope.source.encode("utf-8")
        destination = envelope.destination.encode("utf-8")
    except (AttributeError, UnicodeEncodeError) as exc:
        raise UnencodableWirePayload(
            f"envelope addresses must be utf-8 strings: {exc}") from exc
    if len(source) > 0xFFFF or len(destination) > 0xFFFF:
        raise UnencodableWirePayload(
            f"envelope addresses are {len(source)} and {len(destination)} "
            "bytes; the head caps each at 65535")
    sent_at, delivered_at = envelope.sent_at, envelope.delivered_at
    try:
        head = _ENVELOPE_HEAD.pack(sent_at, delivered_at, len(source),
                                   len(destination))
    except struct.error as exc:
        raise UnencodableWirePayload(
            f"envelope times must be real numbers: {exc}") from exc
    if not (isfinite(sent_at) and isfinite(delivered_at)):
        raise UnencodableWirePayload(
            f"envelope times must be finite, not {sent_at!r} and "
            f"{delivered_at!r}")
    return b"".join((head, source, destination,
                     encode_payload(envelope.payload)))


def decode_envelope(payload: bytes,
                    registry: WireRegistry = WIRE_REGISTRY) -> Envelope:
    """Parse the ``FLAG_ENVELOPE`` form: head, names, canonical payload."""
    if type(payload) is not bytes:
        payload = bytes(payload)
    if len(payload) < _ENVELOPE_HEAD_SIZE:
        raise MalformedWirePayload(
            f"envelope payload is {len(payload)} byte(s); its head needs "
            f"{_ENVELOPE_HEAD_SIZE}")
    sent_at, delivered_at, source_length, destination_length = \
        _ENVELOPE_HEAD.unpack_from(payload)
    split = _ENVELOPE_HEAD_SIZE + source_length
    body = split + destination_length
    if body > len(payload):
        raise MalformedWirePayload(
            f"envelope addresses ({source_length} + {destination_length} "
            "bytes) run past the end of the frame")
    if not (isfinite(sent_at) and isfinite(delivered_at)):
        raise MalformedWirePayload(
            f"non-finite envelope time ({sent_at!r}, {delivered_at!r})")
    try:
        source = payload[_ENVELOPE_HEAD_SIZE:split].decode("utf-8")
        destination = payload[split:body].decode("utf-8")
    except UnicodeDecodeError:
        raise MalformedWirePayload("invalid utf-8 in an envelope address") \
            from None
    value = _decode_at(payload, body, registry)
    return Envelope(source, destination, value, sent_at, delivered_at)


# ---------------------------------------------------------------------------
# frame-level API
# ---------------------------------------------------------------------------
def parse_header(header: bytes,
                 max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
                 ) -> tuple[int, int]:
    """Validate a frame header; returns ``(flags, payload_length)``.

    Runs *before* any payload is buffered, so a corrupt or malicious length
    header is rejected at the cost of eight bytes, not four gigabytes.
    """
    if len(header) < HEADER_SIZE:
        raise TruncatedFrame(
            f"frame header is {len(header)} byte(s), need {HEADER_SIZE}")
    magic, version, flags, length = HEADER.unpack(header[:HEADER_SIZE])
    if magic != WIRE_MAGIC:
        raise BadFrameMagic(
            f"bad frame magic {magic!r} (expected {WIRE_MAGIC!r}); the peer "
            "is not speaking the repro wire protocol")
    if version != WIRE_VERSION:
        raise UnsupportedWireVersion(
            f"wire version {version} (this build speaks {WIRE_VERSION})")
    if flags & ~_KNOWN_FLAGS:
        raise MalformedWirePayload(
            f"unknown frame flags 0x{flags & ~_KNOWN_FLAGS:02x}")
    if length > max_frame_bytes:
        raise OversizedFrame(
            f"frame claims a {length}-byte payload; the enforced maximum is "
            f"{max_frame_bytes} bytes")
    return flags, length


def encode_payload(value: Any) -> bytes:
    """Canonical payload bytes for ``value`` (reuses per-instance caches)."""
    try:
        return canonical_bytes(value)
    except (TypeError, ValueError) as exc:
        raise UnencodableWirePayload(str(exc)) from exc


def decode_payload(payload: bytes,
                   registry: WireRegistry = WIRE_REGISTRY) -> Any:
    """Decode one canonical payload back into the value it encodes."""
    return _decode_at(payload if type(payload) is bytes else bytes(payload),
                      0, registry)


class WireCodec:
    """The safe binary codec: canonical payloads behind the versioned header.

    Symmetric :meth:`encode_frame` / :meth:`decode_frame` plus the split
    :meth:`parse_header` / :meth:`decode_payload_traced` pair streaming
    transports use to validate a header before buffering its payload.
    """

    format_name = "binary"

    def __init__(self, registry: WireRegistry = WIRE_REGISTRY,
                 max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> None:
        self.registry = registry
        self.max_frame_bytes = max_frame_bytes

    # -------------------------------------------------------------- encoding
    def encode_frame(self, value: Any, trace: None = None) -> bytes:
        """One complete frame (header + payload) for ``value``.

        An :class:`~repro.net.network.Envelope` is framed with
        :data:`FLAG_ENVELOPE` and its binary head; anything else as its
        canonical bytes.  Frames carry no trace context since v4: ``trace``
        is unused, and stays because ``benchmarks/e2e/tracing.py`` wraps
        this method and passes it positionally.
        """
        if type(value) is Envelope:
            payload = encode_envelope(value)
            flags = FLAG_ENVELOPE
        else:
            payload = encode_payload(value)
            flags = 0
        if len(payload) > self.max_frame_bytes:
            raise OversizedFrame(
                f"{type(value).__name__} encodes to {len(payload)} bytes; "
                f"the enforced maximum is {self.max_frame_bytes} bytes")
        return HEADER.pack(WIRE_MAGIC, WIRE_VERSION, flags,
                           len(payload)) + payload

    # -------------------------------------------------------------- decoding
    def parse_header(self, header: bytes) -> tuple[int, int]:
        """Validate a header read off the stream; ``(flags, length)``."""
        return parse_header(header, self.max_frame_bytes)

    def decode_payload_traced(self, payload: bytes, flags: int = 0) -> Any:
        """Decode a payload whose header carried ``flags``.

        The name is older than v4, which dropped the trace block the
        method once split off; it returns only the decoded value.
        """
        if flags & FLAG_PICKLE:
            raise MalformedWirePayload(
                "frame carries a pickled payload, which this codec refuses "
                "to execute; the sender must use the binary wire format")
        if flags & FLAG_ENVELOPE:
            return decode_envelope(payload, self.registry)
        value = decode_payload(payload, self.registry)
        if type(value) is Envelope:
            raise MalformedWirePayload(
                "a top-level Envelope must be framed with FLAG_ENVELOPE, not "
                "as canonical bytes")
        return value

    def decode_frame(self, frame: bytes) -> Any:
        """Decode one complete frame produced by :meth:`encode_frame`."""
        flags, length = self.parse_header(frame)
        payload = frame[HEADER_SIZE:]
        if len(payload) != length:
            raise TruncatedFrame(
                f"frame declares a {length}-byte payload but carries "
                f"{len(payload)}")
        return self.decode_payload_traced(payload, flags)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<WireCodec {self.format_name} v{WIRE_VERSION}>"


def _register_support_types() -> None:
    """Register the non-protocol dataclasses that ride inside messages.

    Protocol and recovery message classes register themselves where they are
    defined; these are the substrate types they embed (plus
    :class:`Envelope`, whose canonical form carries envelopes nested inside
    values; a top-level one travels in the ``FLAG_ENVELOPE`` form).
    """
    from ..common.types import RequestId
    from ..crypto.signatures import Mac, Signature
    from ..execution.state_machine import Operation, OperationResult
    from ..trusted.attestation import Attestation

    for cls in (RequestId, Operation, OperationResult, Signature, Mac,
                Attestation, Envelope):
        WIRE_REGISTRY.register(cls)


_register_support_types()

"""Versioned binary wire protocol over the canonical encoding.

Replicas already agree on one deterministic byte encoding of every protocol
value — the canonical-bytes layer in :mod:`repro.crypto.digest` that backs
the paper's ``Δ := Hash(⟨T⟩c)`` digest discipline.  This module promotes that
encoding from *encode-only* (good enough for hashing and signing) to a full
wire format: a fixed frame header plus a decoder that turns canonical bytes
back into the dataclasses they came from.

Frame layout (big-endian)::

    offset  size  field
    0       2     magic       b"RB"
    2       1     version     WIRE_VERSION (currently 2)
    3       1     flags       bit 0: reserved (once a pickled payload; a
                              frame that sets it is refused)
                              bit 1: a trace-context block opens the
                              payload (FLAG_TRACE)
                              bit 2: the payload is an Envelope with a
                              binary head (FLAG_ENVELOPE)
    4       4     length      payload byte count, <= the enforced max frame

A ``FLAG_TRACE`` payload starts with ``>HQQ`` (trace-id byte length, span
id, parent span id) + the utf-8 trace id; the header length covers the
block and everything after it.  Untraced frames never set the bit, and a
traced frame is its untraced twin plus the bit and the block, which the
golden vectors pin.

An :class:`~repro.net.network.Envelope` — what every message on a live
transport travels in — is framed with ``FLAG_ENVELOPE``: after the trace
block, if any, comes a fixed ``>ddHH`` head (``sent_at``, ``delivered_at``,
source byte length, destination byte length), the utf-8 source and
destination, and then ``canonical_bytes(envelope.payload)``.  The two times
cross as IEEE doubles instead of canonical float text, so neither end pays
a ``repr`` or a pattern match for them.  The head is decoded strictly too:
a truncated head, addresses that run past the frame, invalid utf-8 and
non-finite times are all :class:`MalformedWirePayload`.  An ``Envelope`` has
that one spelling at the top of a frame: a frame without the flag whose
payload decodes to an ``Envelope`` is refused.  Nested envelopes, and every
other value, stay canonical bytes.

Every other payload is exactly ``canonical_bytes(value)``, so the frame bytes
a message crosses the wire as are the same bytes its digests and signatures
are computed over — encoding for the wire reuses the per-instance canonical
caches, and decoding pins the received bytes back onto the instance, which
makes framing *cheaper* than a second serialiser, not costlier.

Decoding needs two things encoding does not:

* a **registry** mapping dataclass names to classes
  (:class:`WireRegistry`); registration happens where message classes are
  defined (``@wire_serializable`` in :mod:`repro.protocols.messages`), and
  the handful of support types (identifiers, signatures, attestations, and
  :class:`~repro.net.network.Envelope` for the envelopes nested inside
  values) are registered here;
* per-class **field templates** — the digest layer's view of each class,
  with its resolved type hints — that restore the declared field types the
  encoding collapses (``tuple`` and ``list`` share one container tag, as do
  ``set`` and ``frozenset``).

The decoder is strict: field names must appear in declaration order, length
prefixes and integer bodies must be canonical decimal, floats must
round-trip their ``repr``, and the payload must be consumed exactly.  A
frame that decodes is therefore guaranteed to re-encode to the identical
bytes — every decodable value has exactly one spelling — which is what lets
the received slice be pinned as the instance's canonical-encoding cache.

Both directions are **generated per class**.  Encoding a dataclass runs a
straight-line encoder the digest layer generates on the class's first
encode; decoding one runs a decoder generated here on its first decode
(see "generated per-class decoders" below), whose compiled patterns
recognise exactly the canonical bytes the class's type hints predict.  The
recursive-descent :class:`_Decoder` is the one strict slow path: whenever a
generated decoder meets bytes it does not recognise, the whole payload is
decoded again by the strict parser, which accepts it or raises the typed
error.  The two can differ in speed only; the differential tests hold them
to the same values, the same pinned bytes and the same errors.

Every failure raises a typed :class:`~repro.common.errors.WireError`
subclass; nothing in this module ever executes payload-controlled code,
which is the point — it replaces ``pickle.loads`` on network bytes.

Versioning rules: bump :data:`WIRE_VERSION` whenever the header layout, the
envelope head or the canonical encoding changes incompatibly; a decoder only
accepts its own version.  The golden vectors under ``tests/golden/wire/`` pin
the format — if they change, the version must too.
"""

from __future__ import annotations

import importlib
import re
import struct
from math import isfinite
from dataclasses import fields, is_dataclass
from typing import Any, Callable, Optional, get_origin

from ..common.errors import (
    BadFrameMagic,
    ConfigurationError,
    MalformedWirePayload,
    OversizedFrame,
    TruncatedFrame,
    UnencodableWirePayload,
    UnknownWireClass,
    UnsupportedWireVersion,
    WireError,
)
# The decoders deliberately reuse the digest layer's view of a class (same
# field order, same resolved hints) and its cache attribute, so wire framing
# and digest/signature memoisation stay one mechanism with one set of
# invariants.
from ..crypto.digest import (
    _CANONICAL_CACHE,
    DIGEST_SIZE,
    FunctionSource,
    _token,
    canonical_bytes,
    class_fields,
    constructs_by_storing,
    optional_of,
    tuple_of,
)
from ..obsv.trace import TraceContext
from .network import Envelope

#: first bytes of every frame.
WIRE_MAGIC = b"RB"
#: current wire-protocol version; decoders accept exactly this version.
WIRE_VERSION = 2
#: flags bit, reserved: it marked a pickled payload while the one-release
#: ``--unsafe-pickle`` escape hatch existed.  Nothing sets it any more and a
#: frame that does is refused with a typed error, never unpickled.
FLAG_PICKLE = 0x01
#: flags bit: a :class:`~repro.obsv.trace.TraceContext` block precedes the
#: canonical payload (see :func:`encode_trace_context`).  Untraced frames
#: never set it and stay byte-identical to the pre-tracing format.
FLAG_TRACE = 0x02
#: flags bit: the payload is an :class:`~repro.net.network.Envelope` in the
#: binary-head form (see :func:`encode_envelope`), not canonical bytes.
FLAG_ENVELOPE = 0x04
_KNOWN_FLAGS = FLAG_PICKLE | FLAG_TRACE | FLAG_ENVELOPE

#: frame header: magic, version, flags, payload length.
HEADER = struct.Struct(">2sBBI")
HEADER_SIZE = HEADER.size

#: default ceiling on one frame's payload.  Generous against real traffic
#: (the largest legitimate frames — checkpoint snapshots — are a few hundred
#: kilobytes) while capping what a corrupt or malicious length header can
#: make a reader buffer.
DEFAULT_MAX_FRAME_BYTES = 16 * 1024 * 1024

#: recursion ceiling for nested containers/dataclasses; legitimate messages
#: nest ~12 deep (Envelope > NewView > PrePrepare > batch > request > op).
MAX_DECODE_DEPTH = 64


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
class _RegisteredClass:
    """One decodable dataclass plus its lazily built decoders."""

    __slots__ = ("cls", "decode_fields", "cacheable", "decode")

    def __init__(self, cls: type) -> None:
        self.cls = cls
        self.cacheable = bool(getattr(cls, "__canonical_cacheable__", False))
        #: the strict path's template, tuple of (encoded field-name bytes,
        #: coercer or None); built on first decode so forward-referenced
        #: annotations have resolved.
        self.decode_fields: Optional[tuple] = None
        #: the generated fast decoder (see :func:`_generate_decoder`).
        self.decode: Optional[Callable] = None


class WireRegistry:
    """Name -> dataclass mapping the decoder resolves ``D`` records against.

    Registering a new message class is one line at its definition::

        @wire_serializable
        @canonical_cacheable
        @dataclass(frozen=True)
        class MyMessage: ...

    Names must be unique across the registry — the canonical encoding
    identifies a dataclass by its bare class name, so two wire classes may
    not share one.
    """

    def __init__(self) -> None:
        self._by_name: dict[str, _RegisteredClass] = {}
        #: the same entries by encoded record header (``D<len>:<name>``).
        self._by_header: dict[bytes, _RegisteredClass] = {}

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
        if existing is None:
            entry = self._by_name[name] = _RegisteredClass(cls)
            self._by_header[_token(b"D", name.encode())] = entry
        return cls

    def lookup(self, name: str) -> _RegisteredClass:
        """The registered entry for ``name``; raises :class:`UnknownWireClass`."""
        entry = self._by_name.get(name)
        if entry is None:
            _import_default_message_modules()
            entry = self._by_name.get(name)
        if entry is None:
            raise UnknownWireClass(
                f"no wire class registered under {name!r}; register it with "
                "@wire_serializable where it is defined")
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
#: lazily on the first unknown-class lookup so this module never depends on
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
# field coercion templates
# ---------------------------------------------------------------------------
def _coercer_for(hint: Any) -> Optional[Callable[[Any], Any]]:
    """Restore the declared field type the encoding collapses, or ``None``.

    The canonical encoding writes ``tuple``/``list`` with one tag and
    ``set``/``frozenset`` with another; the decoder materialises ``list`` and
    ``set`` and this coercer converts to the declared immutable type.  Other
    types are self-describing and pass through.
    """
    inner = optional_of(hint)
    if inner is not None:
        coerce = _coercer_for(inner)
        if coerce is None:
            return None
        return lambda value: value if value is None else coerce(value)
    if hint is tuple or get_origin(hint) is tuple:
        element = _coercer_for(tuple_of(hint))
        if element is None:
            return tuple
        return lambda value: tuple(element(item) for item in value)
    if hint is frozenset or get_origin(hint) is frozenset:
        return frozenset
    return None


def _decode_template(entry: _RegisteredClass) -> tuple:
    """(field-name bytes, coercer) per field of the strict path."""
    template = entry.decode_fields
    if template is None:
        template = entry.decode_fields = tuple(
            (_token(b"s", attr.encode()), _coercer_for(hint))
            for attr, hint in class_fields(entry.cls))
    return template


# ---------------------------------------------------------------------------
# payload decoding
# ---------------------------------------------------------------------------
_TAG_NONE = ord("N")
_TAG_TRUE = ord("T")
_TAG_FALSE = ord("F")
_TAG_INT = ord("i")
_TAG_FLOAT = ord("f")
_TAG_STR = ord("s")
_TAG_BYTES = ord("b")
_TAG_DICT = ord("M")
_TAG_LIST = ord("L")
_TAG_SET = ord("S")
_TAG_DATACLASS = ord("D")
_END_DICT = ord("m")
_END_LIST = ord("l")
_END_SET = ord("s")
_END_DATACLASS = ord("d")
_DIGITS = frozenset(b"0123456789")


class _FastPathMiss(Exception):
    """A generated decoder met bytes it does not recognise.

    Never escapes this module: :func:`decode_payload` answers it by decoding
    the whole payload again on the strict path, which either accepts the
    (unusual but valid) bytes or raises the typed :class:`WireError`.
    """


class _Decoder:
    """Strict recursive-descent parser over one canonical payload.

    With ``fast`` set, ``D`` records are handed to their class's generated
    decoder; without it every byte goes through the methods below, which are
    the reference the generated decoders must agree with.
    """

    __slots__ = ("data", "pos", "registry", "fast")

    def __init__(self, data: bytes, registry: WireRegistry,
                 fast: bool = False) -> None:
        self.data = data
        self.pos = 0
        self.registry = registry
        self.fast = fast

    def decode(self) -> Any:
        value = self._value(0)
        if self.pos != len(self.data):
            raise MalformedWirePayload(
                f"{len(self.data) - self.pos} trailing byte(s) after the "
                "payload value")
        return value

    # ------------------------------------------------------------- plumbing
    def _fail(self, reason: str) -> MalformedWirePayload:
        return MalformedWirePayload(f"{reason} at offset {self.pos}")

    def _body(self) -> bytes:
        """Parse ``<digits>:<body>`` at the cursor; returns the body bytes.

        The one hot-path helper: strings, ints, floats, bytes and class
        names all route through it, so the length parse and the bounds
        check are inlined rather than split across two helpers.
        """
        data = self.data
        pos = self.pos
        colon = data.find(b":", pos, pos + 20)
        if colon < 0:
            raise self._fail("missing length terminator ':'")
        digits = data[pos:colon]
        # Canonical decimal only, like integer bodies: a zero-padded prefix
        # would decode to a value that re-encodes to different bytes, and
        # the received slice is what gets pinned as its encoding.
        if not digits.isdigit() or (len(digits) > 1 and digits[:1] == b"0"):
            raise self._fail(f"invalid length prefix {digits!r}")
        end = colon + 1 + int(digits)
        if end > len(data):
            raise self._fail(f"payload ends inside a {int(digits)}-byte body")
        self.pos = end
        return data[colon + 1:end]

    # --------------------------------------------------------------- values
    def _value(self, depth: int) -> Any:
        if depth >= MAX_DECODE_DEPTH:
            raise self._fail(f"nesting deeper than {MAX_DECODE_DEPTH}")
        data = self.data
        if self.pos >= len(data):
            raise self._fail("payload ended where a value was expected")
        tag = data[self.pos]
        self.pos += 1
        # Dispatch ordered by rough frequency in protocol traffic.
        if tag == _TAG_STR:
            return self._str()
        if tag == _TAG_INT:
            return self._int()
        if tag == _TAG_DATACLASS:
            return self._dataclass(depth)
        if tag == _TAG_BYTES:
            return self._body()
        if tag == _TAG_NONE:
            return None
        if tag == _TAG_TRUE:
            return True
        if tag == _TAG_FALSE:
            return False
        if tag == _TAG_FLOAT:
            return self._float()
        if tag == _TAG_LIST:
            return self._list(depth)
        if tag == _TAG_DICT:
            return self._dict(depth)
        if tag == _TAG_SET:
            return self._set(depth)
        self.pos -= 1
        raise self._fail(f"unknown value tag {bytes((tag,))!r}")

    def _int(self) -> int:
        raw = self._body()
        body = raw[1:] if raw[:1] == b"-" else raw
        # Canonical decimal only: what str(int) produces, nothing else.  A
        # laxer parse (leading zeros, '+', '_') would decode to a value that
        # re-encodes differently, breaking the decode-pins-the-cache rule.
        if (not body.isdigit() or (len(body) > 1 and body[:1] == b"0")
                or (raw[:1] == b"-" and body == b"0")):
            raise self._fail(f"non-canonical integer body {raw!r}")
        return int(raw)

    def _float(self) -> float:
        raw = self._body()
        try:
            value = float(raw)
        except ValueError:
            raise self._fail(f"invalid float body {raw!r}") from None
        if repr(value).encode() != raw:
            raise self._fail(f"non-canonical float body {raw!r}")
        return value

    def _str(self) -> str:
        raw = self._body()
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            raise self._fail(f"invalid utf-8 in string body {raw!r}") from None

    def _list(self, depth: int) -> list:
        items = []
        data = self.data
        while True:
            if self.pos >= len(data):
                raise self._fail("unterminated list")
            if data[self.pos] == _END_LIST:
                self.pos += 1
                return items
            items.append(self._value(depth + 1))

    def _dict(self, depth: int) -> dict:
        result: dict = {}
        data = self.data
        while True:
            if self.pos >= len(data):
                raise self._fail("unterminated dict")
            if data[self.pos] == _END_DICT:
                self.pos += 1
                return result
            key = self._value(depth + 1)
            value = self._value(depth + 1)
            try:
                result[key] = value
            except TypeError:
                raise self._fail(f"unhashable dict key {key!r}") from None

    def _set(self, depth: int) -> set:
        # The set terminator shares the byte 's' with the string tag; a
        # string always continues with a length digit and a terminator never
        # can (after a set ends only another tag or terminator may follow),
        # so one byte of lookahead disambiguates.
        result: set = set()
        data = self.data
        while True:
            if self.pos >= len(data):
                raise self._fail("unterminated set")
            byte = data[self.pos]
            if byte == _END_SET and (self.pos + 1 >= len(data)
                                     or data[self.pos + 1] not in _DIGITS):
                self.pos += 1
                return result
            item = self._value(depth + 1)
            try:
                result.add(item)
            except TypeError:
                raise self._fail(f"unhashable set member {item!r}") from None

    def _dataclass(self, depth: int) -> Any:
        start = self.pos - 1  # include the 'D' tag in the pinned cache slice
        if self.fast:
            # Identify the class by its whole header token; the generated
            # decoder re-checks the header, and a header that is not exactly
            # a registered one is the strict path's to judge.
            data = self.data
            colon = data.find(b":", start, start + 5)
            digits = data[start + 1:colon]
            if not digits.isdigit():
                raise _FastPathMiss
            entry = self.registry._by_header.get(
                data[start:colon + 1 + int(digits)])
            if entry is None:
                raise _FastPathMiss
            decode = entry.decode
            if decode is None:
                decode = _generated_decoder(entry, self.registry)
            return decode(self, start, depth)
        name = self._str()
        entry = self.registry._by_name.get(name)
        if entry is None:
            entry = self.registry.lookup(name)  # lazy-import slow path
        template = entry.decode_fields
        if template is None:
            template = _decode_template(entry)
        data = self.data
        values = []
        append = values.append
        for name_bytes, coerce in template:
            if not data.startswith(name_bytes, self.pos):
                raise self._fail(
                    f"field mismatch in {name}: expected {name_bytes!r} "
                    "(canonical declaration order)")
            self.pos += len(name_bytes)
            value = self._value(depth + 1)
            append(coerce(value) if coerce is not None else value)
        if self.pos >= len(data) or data[self.pos] != _END_DATACLASS:
            raise self._fail(f"unterminated dataclass {name}")
        self.pos += 1
        try:
            instance = entry.cls(*values)
        except Exception as exc:
            raise MalformedWirePayload(
                f"cannot construct {name} from decoded fields: {exc}") from exc
        if entry.cacheable:
            # The strict parse guarantees re-encoding reproduces exactly the
            # received bytes, so the wire slice doubles as the instance's
            # canonical-encoding cache — every later digest/signature over
            # this message reuses what the sender already computed.
            object.__setattr__(instance, _CANONICAL_CACHE,
                               data[start:self.pos])
        return instance


# ---------------------------------------------------------------------------
# generated per-class decoders
# ---------------------------------------------------------------------------
# A registered class's layout is static — header, field names, declaration
# order, and from the type hints the tag each value will almost certainly
# carry — so each class gets one decoder, generated on its first decode.
# Runs of statically typed scalar fields (and the flat dataclasses nested in
# them) are recognised by one compiled pattern each, matched in C; the code
# between patterns enters typed nested classes directly and hands ``object``
# fields to the strict parser.  The generator's only inputs are registered
# classes: nothing payload-controlled is ever compiled or executed.
#
# A generated decoder accepts a subset of what the strict path accepts, with
# the same values: every pattern spells out canonical length prefixes and
# integer bodies, and the conversions re-check each captured body against
# its prefix, utf-8 and the float round trip.  On anything else — a hinted
# ``int`` field carrying a string, a negative or ten-digit integer, a string
# with a ``:`` in it, a byte string that is not digest-sized, malformed
# bytes — it raises :class:`_FastPathMiss` and the strict path decides.
#
# Patterns stay linear on hostile input: every repeat is bounded except a
# string body, ``[^:]*``, and that is always followed in the same pattern by a
# literal containing ``:`` (the next field name), so it can end in exactly
# one place and backtracking never multiplies.  A string that would end a
# pattern is left to the strict parser instead.
_INT_PATTERN = (rb"i(?=(?:1:\d|" + b"|".join(
    rb"%d:[1-9]\d{%d}" % (size, size - 1) for size in range(2, 10))
    + rb")\D)\d:(\d+)")
_STR_PATTERN = rb"s(0|[1-9]\d{0,6}):([^:]*)"
_FLOAT_PATTERN = rb"f([1-9]\d?):([0-9.e+\-infa]{1,32})"
_BYTES_PATTERN = rb"b%d:(.{%d})" % (DIGEST_SIZE, DIGEST_SIZE)
_BOOL_PATTERN = rb"([TF])"


class _Fragment:
    """Pattern source for one statically typed value and its conversion."""

    __slots__ = ("pattern", "groups", "open", "depth", "convert")

    def __init__(self, pattern: bytes, groups: int, convert: Callable,
                 open: bool = False, depth: int = 0) -> None:
        self.pattern = pattern
        self.groups = groups
        #: ``convert(source, indent, first group index, target variable)``
        #: emits the statements turning the captured groups into the value.
        self.convert = convert
        #: ends in an unbounded string body: only usable when a literal
        #: containing ``:`` follows it in the same pattern.
        self.open = open
        #: nesting levels below the value itself (for the depth ceiling).
        self.depth = depth


def _str_conversion(source, indent, group, target):
    source.line(indent, f"{target} = g[{group + 1}]")
    source.line(indent, f"if len({target}) != int(g[{group}]): raise _Miss")
    source.line(indent, f"{target} = {target}.decode()")


def _float_conversion(source, indent, group, target):
    source.line(indent, f"_b = g[{group + 1}]")
    source.line(indent, f"{target} = float(_b)")
    source.line(indent, f"if len(_b) != int(g[{group}]) or "
                        f"repr({target}).encode() != _b: raise _Miss")


_SCALAR_FRAGMENTS = {
    int: _Fragment(_INT_PATTERN, 1, lambda source, indent, group, target:
                   source.line(indent, f"{target} = int(g[{group}])")),
    bool: _Fragment(_BOOL_PATTERN, 1, lambda source, indent, group, target:
                    source.line(indent, f"{target} = g[{group}] == b'T'")),
    bytes: _Fragment(_BYTES_PATTERN, 1, lambda source, indent, group, target:
                     source.line(indent, f"{target} = g[{group}]")),
    str: _Fragment(_STR_PATTERN, 2, _str_conversion, open=True),
    float: _Fragment(_FLOAT_PATTERN, 2, _float_conversion),
}


def _registered(hint: Any, registry: WireRegistry) -> Optional[_RegisteredClass]:
    """``hint``'s registry entry when it is a class this registry decodes."""
    if isinstance(hint, type):
        entry = registry._by_name.get(hint.__name__)
        if entry is not None and entry.cls is hint:
            return entry
    return None


def _fragment(hint: Any, registry: WireRegistry,
              active: frozenset) -> Optional[_Fragment]:
    """The pattern fragment for a value hinted ``hint``, if it has one.

    Scalars, ``Optional`` of a fragment, and registered dataclasses all of
    whose fields have fragments (``active`` breaks reference cycles).
    """
    scalar = _SCALAR_FRAGMENTS.get(hint)
    if scalar is not None:
        return scalar
    optional = optional_of(hint)
    inner = None if optional is None else _fragment(optional, registry, active)
    if inner is not None:
        def convert(source, indent, group, target):
            source.line(indent, f"if g[{group}] is None:")
            source.line(indent, f" {target} = None")
            source.line(indent, "else:")
            inner.convert(source, indent + " ", group, target)
        return _Fragment(b"(?:N|" + inner.pattern + b")", inner.groups,
                         convert, inner.open, inner.depth)
    entry = _registered(hint, registry)
    if entry is None or hint in active:
        return None
    parts = [re.escape(_token(b"D", hint.__name__.encode()))]
    children = []
    groups, depth, open_ended = 1, 0, False
    for attr, field_hint in class_fields(hint):
        child = _fragment(field_hint, registry, active | {hint})
        if child is None:
            return None
        parts.append(re.escape(_token(b"s", attr.encode())) + child.pattern)
        children.append((groups, child))
        groups += child.groups
        depth = max(depth, 1 + child.depth)
        open_ended = child.open

    def convert(source, indent, group, target):
        values = []
        for offset, child in children:
            values.append(source.temporary())
            child.convert(source, indent, group + offset, values[-1])
        source.construct(indent, target, entry, values, f"g[{group}]")
    return _Fragment(b"(" + b"".join(parts) + b"d)", groups, convert,
                     open_ended, depth)


class _DecoderSource(FunctionSource):
    """A decoder in the making: lines, bindings and the pending pattern."""

    def __init__(self) -> None:
        super().__init__({
            "_Miss": _FastPathMiss, "_CACHE": _CANONICAL_CACHE,
            "_setattr": object.__setattr__, "_new": object.__new__,
            "WireError": WireError})
        self._temporaries = 0
        #: the pattern being assembled: (source, the literal it escapes or
        #: None) parts, and the fragments whose groups it captures.
        self._parts: list[tuple[bytes, Optional[bytes]]] = []
        self._captures: list[tuple[_Fragment, int, str]] = []
        self._groups = 0

    def temporary(self) -> str:
        self._temporaries += 1
        return f"_t{self._temporaries}"

    def expect(self, literal: bytes) -> None:
        """Constant bytes the pattern being assembled must see next."""
        self._parts.append((re.escape(literal), literal))

    def capture(self, fragment: _Fragment, target: str) -> None:
        """A typed value next in the pattern, converted into ``target``."""
        self._parts.append((fragment.pattern, None))
        self._captures.append((fragment, self._groups, target))
        self._groups += fragment.groups

    def match(self, indent: str) -> None:
        """Emit the assembled pattern: match at ``p``, convert, advance."""
        parts, captures = self._parts, self._captures
        self._parts, self._captures, self._groups = [], [], 0
        if not parts:
            return
        if not captures:
            literal = b"".join(literal for _, literal in parts)
            self.line(indent, f"if not data.startswith({literal!r}, p): "
                              "raise _Miss")
            self.line(indent, f"p += {len(literal)}")
            return
        pattern = re.compile(b"".join(part for part, _ in parts), re.DOTALL)
        self.line(indent, f"m = {self.bind(pattern.match)}(data, p)")
        self.line(indent, "if m is None: raise _Miss")
        self.line(indent, "g = m.groups()")
        for fragment, group, target in captures:
            fragment.convert(self, indent, group, target)
        self.line(indent, "p = m.end()")

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
        self.line(indent, f"{target} = {cls}({', '.join(values)})")
        if pin is not None:
            self.line(indent, f"_setattr({target}, _CACHE, {pin})")


def _decoder_pending(decoder, pos, depth):
    raise _FastPathMiss


def _generated_decoder(entry: _RegisteredClass,
                       registry: WireRegistry) -> Callable:
    """``entry``'s fast decoder, generated on first use."""
    decode = entry.decode
    if decode is None:
        # Claimed before generating: a class that refers back to this one
        # (generated code calls through the entry) must not start over.
        entry.decode = _decoder_pending
        try:
            decode = entry.decode = _generate_decoder(entry, registry)
        except BaseException:
            entry.decode = None
            raise
    return decode


def _generate_decoder(entry: _RegisteredClass,
                      registry: WireRegistry) -> Callable:
    """Generate ``decode(decoder, pos, depth)`` for one registered class.

    ``pos`` is the offset of the record's ``D`` tag; the function returns
    the instance with ``decoder.pos`` just past the closing ``d``, or
    raises :class:`_FastPathMiss` having decided nothing.
    """
    cls = entry.cls
    source = _DecoderSource()
    active = frozenset((cls,))
    members = class_fields(cls)
    values = []
    needed = 0
    source.expect(_token(b"D", cls.__name__.encode()))
    for index, (attr, hint) in enumerate(members):
        source.expect(_token(b"s", attr.encode()))
        value = f"_v{index}"
        values.append(value)
        fragment = _fragment(hint, registry, active)
        if fragment is not None and not (fragment.open
                                         and index == len(members) - 1):
            source.capture(fragment, value)
            needed = max(needed, 1 + fragment.depth)
            continue
        element = _registered(tuple_of(hint), registry)
        if element is not None:
            # A tuple of one registered class: decode items while the next
            # record's header is that class's.
            source.expect(b"L")
            source.match("  ")
            header = _token(b"D", element.cls.__name__.encode())
            _generated_decoder(element, registry)
            source.line("  ", f"{value} = []")
            source.line("  ", f"while data.startswith({header!r}, p):")
            source.line("  ", f" {value}.append({source.bind(element)}"
                              ".decode(d, p, depth + 2))")
            source.line("  ", " p = d.pos")
            source.line("  ", f"{value} = tuple({value})")
            source.expect(b"l")
            needed = max(needed, 2)
            continue
        source.match("  ")
        nested = _registered(hint, registry)
        if nested is not None:
            _generated_decoder(nested, registry)
            source.line("  ", f"{value} = {source.bind(nested)}"
                              ".decode(d, p, depth + 1)")
        else:
            source.line("  ", "d.pos = p")
            source.line("  ", f"{value} = d._value(depth + 1)")
            coerce = _coercer_for(hint)
            if coerce is not None:
                source.line("  ", f"{value} = {source.bind(coerce)}({value})")
        source.line("  ", "p = d.pos")
        needed = max(needed, 1)
    source.expect(b"d")
    source.match("  ")
    source.line("  ", "d.pos = p")
    source.construct("  ", "value", entry, values, "data[pos:p]")
    source.line("  ", "return value")
    body = source.lines
    source.lines = [
        "def decode(d, pos, depth):",
        f" if depth + {needed} >= {MAX_DECODE_DEPTH}: raise _Miss",
        " data = d.data",
        " p = pos",
        " try:",
        *body,
        " except WireError:",
        "  raise",
        " except Exception:",
        "  raise _Miss from None",
    ]
    return source.compile(f"<generated decoder {cls.__name__}>", "decode")


# ---------------------------------------------------------------------------
# trace-context block
# ---------------------------------------------------------------------------
#: fixed head of the FLAG_TRACE block: trace-id byte length (u16), span id
#: (u64), parent span id (u64); the utf-8 trace-id bytes follow.
_TRACE_BLOCK = struct.Struct(">HQQ")
_TRACE_BLOCK_SIZE = _TRACE_BLOCK.size


def encode_trace_context(context: TraceContext) -> bytes:
    """The ``FLAG_TRACE`` block prefixed to a traced frame's payload."""
    trace_id = context.trace_id.encode("utf-8")
    if len(trace_id) > 0xFFFF:
        raise UnencodableWirePayload(
            f"trace id is {len(trace_id)} bytes; the wire block caps it "
            "at 65535")
    try:
        head = _TRACE_BLOCK.pack(len(trace_id), context.span_id,
                                 context.parent_span_id)
    except struct.error as exc:
        raise UnencodableWirePayload(
            f"trace context span ids must fit an unsigned 64-bit field: "
            f"{exc}") from exc
    return head + trace_id


def decode_trace_context(payload: bytes) -> tuple[TraceContext, int]:
    """Parse the trace block at the head of a traced payload.

    Returns ``(context, consumed)`` where ``consumed`` is the block's byte
    length; the canonical payload starts at that offset.
    """
    if len(payload) < _TRACE_BLOCK_SIZE:
        raise MalformedWirePayload(
            f"traced payload is {len(payload)} byte(s); the trace block "
            f"head needs {_TRACE_BLOCK_SIZE}")
    id_length, span_id, parent_span_id = _TRACE_BLOCK.unpack_from(payload)
    end = _TRACE_BLOCK_SIZE + id_length
    if len(payload) < end:
        raise MalformedWirePayload(
            f"traced payload ends inside its {id_length}-byte trace id")
    try:
        trace_id = payload[_TRACE_BLOCK_SIZE:end].decode("utf-8")
    except UnicodeDecodeError:
        raise MalformedWirePayload("invalid utf-8 in trace id") from None
    return TraceContext(trace_id=trace_id, span_id=span_id,
                        parent_span_id=parent_span_id), end


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
    value = decode_payload(payload[body:], registry)
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
    except TypeError as exc:
        raise UnencodableWirePayload(str(exc)) from exc


def decode_payload(payload: bytes,
                   registry: WireRegistry = WIRE_REGISTRY) -> Any:
    """Decode one canonical payload back into the value it encodes.

    Generated per-class decoders first; on anything they do not recognise,
    the strict path over the whole payload again (at most two linear passes,
    however the payload nests).
    """
    data = bytes(payload)
    try:
        return _Decoder(data, registry, fast=True).decode()
    except _FastPathMiss:
        return _Decoder(data, registry).decode()


class WireCodec:
    """The safe binary codec: canonical payloads behind the versioned header.

    Symmetric :meth:`encode_frame` / :meth:`decode_frame` plus the split
    :meth:`parse_header` / :meth:`decode_payload` pair streaming transports
    use to validate a header before buffering its payload.
    """

    format_name = "binary"

    def __init__(self, registry: WireRegistry = WIRE_REGISTRY,
                 max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> None:
        self.registry = registry
        self.max_frame_bytes = max_frame_bytes

    # -------------------------------------------------------------- encoding
    def encode_frame(self, value: Any,
                     trace: Optional[TraceContext] = None) -> bytes:
        """One complete frame (header + payload) for ``value``.

        An :class:`~repro.net.network.Envelope` is framed with
        :data:`FLAG_ENVELOPE` and its binary head; anything else as its
        canonical bytes.  With ``trace`` set the frame carries
        :data:`FLAG_TRACE` and the trace block opens the payload; with
        ``trace=None`` it is the same frame without the bit and the block.
        """
        if type(value) is Envelope:
            payload = encode_envelope(value)
            flags = FLAG_ENVELOPE
        else:
            payload = encode_payload(value)
            flags = 0
        if trace is not None:
            payload = encode_trace_context(trace) + payload
            flags |= FLAG_TRACE
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

    def decode_payload_traced(self, payload: bytes, flags: int = 0
                              ) -> tuple[Any, Optional[TraceContext]]:
        """Decode a payload; returns ``(value, trace context or None)``."""
        if flags & FLAG_PICKLE:
            raise MalformedWirePayload(
                "frame carries a pickled payload, which this codec refuses "
                "to execute; the sender must use the binary wire format")
        context = None
        if flags & FLAG_TRACE:
            context, consumed = decode_trace_context(payload)
            payload = payload[consumed:]
        if flags & FLAG_ENVELOPE:
            return decode_envelope(payload, self.registry), context
        value = decode_payload(payload, self.registry)
        if type(value) is Envelope:
            raise MalformedWirePayload(
                "a top-level Envelope must be framed with FLAG_ENVELOPE, not "
                "as canonical bytes")
        return value, context

    def decode_payload(self, payload: bytes, flags: int = 0) -> Any:
        """Decode a payload whose header carried ``flags``."""
        return self.decode_payload_traced(payload, flags)[0]

    def decode_frame(self, frame: bytes) -> Any:
        """Decode one complete frame produced by :meth:`encode_frame`."""
        return self.decode_frame_traced(frame)[0]

    def decode_frame_traced(self, frame: bytes
                            ) -> tuple[Any, Optional[TraceContext]]:
        """Decode one complete frame; returns ``(value, context or None)``."""
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

"""Canonical serialisation and SHA-256 digests.

Replicas agree on *digests* of client transactions (the paper writes
``Δ := Hash(⟨T⟩c)``), so every message that mentions a transaction carries a
deterministic, collision-resistant fingerprint rather than the payload.  The
helpers here turn plain-data Python values into one canonical byte string —
the bytes that are hashed, signed and sent (:mod:`repro.net.wire` frames
them) — so that logically equal values always hash to the same digest
regardless of dict insertion order or container type.

The encoding is positional (wire v3).  A value of no declared type opens
with a one-byte type tag; a dataclass opens with its class's pinned
one-byte tag (:data:`CLASS_TAGS`, assigned where the wire registry registers
the class) and its fields follow in declaration order, without names, each
spelled as its type hint declares::

    None 00 | False 01 | True 02 | int 03 <zigzag varint> | float 04 <f64>
    str 05 <len> <utf-8> | bytes 06 <len> <bytes>
    list/tuple 07 <count> <value>...
    set 08 <count> <member>...          members in ascending byte order
    dict 09 <count> (<key> <value>)...  pairs in ascending key-byte order
    dataclass <class tag> <field>...

A field declared ``int``, ``str``, ``bytes``, ``float`` or ``bool`` carries
the body without the tag (a bool as one byte, 0 or 1); ``Optional[X]`` a
presence byte (0, or 1 and then ``X``); ``tuple[X, ...]`` a count and the
items as ``X``; a dataclass type its record; any other hint (``object``,
``dict``, ...) a tagged value.  Varints are unsigned LEB128 of at most
:data:`MAX_VARINT_BYTES` bytes, ints zigzag-mapped first; floats are
big-endian IEEE doubles with one NaN.  A typed field holding a value of
another type cannot be encoded (:class:`TypeError`): hints are the schema.

Memoisation
-----------

The same frozen message is signed, verified, batched and framed many times.
Frozen dataclasses whose fields can never change may opt into
**per-instance caching** with :func:`canonical_cacheable`; their canonical
encoding and digest are then computed once and pinned on the instance, which
every later encode (including as a field of an enclosing value) reuses.  The
cache is invisible to callers — ``canonical_bytes(value, use_cache=False)``
forces the uncached path.  Encoders are generated per class on first use;
the tests hold them to a reference encoder kept under ``tests/``.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import MISSING, fields, is_dataclass
from operator import itemgetter
from types import UnionType
from typing import Any, Union, get_args, get_origin, get_type_hints

DIGEST_SIZE = 32

#: type tags of values outside a declared field.
TAG_NONE, TAG_FALSE, TAG_TRUE, TAG_INT, TAG_FLOAT = 0, 1, 2, 3, 4
TAG_STR, TAG_BYTES, TAG_LIST, TAG_SET, TAG_DICT = 5, 6, 7, 8, 9
#: class tags run from here to 0xFF, so one byte tells a record from a value.
FIRST_CLASS_TAG = 0x10
#: longest varint either side accepts: ints up to 2**447 in magnitude.
MAX_VARINT_BYTES = 64

#: instance attributes the memoised paths pin on cacheable dataclasses.
_CANONICAL_CACHE = "_repro_canonical_cache"
_DIGEST_CACHE = "_repro_digest_cache"

#: dataclass -> its one-byte record tag; see :func:`assign_class_tag`.
CLASS_TAGS: dict[type, bytes] = {}


def assign_class_tag(cls: type, tag: int) -> None:
    """Pin ``cls``'s record tag (the wire registry's job, once per class)."""
    if not FIRST_CLASS_TAG <= tag <= 0xFF:
        raise ValueError(f"class tag {tag:#x} of {cls.__name__} is outside "
                         f"{FIRST_CLASS_TAG:#x}..0xff")
    if CLASS_TAGS.setdefault(cls, bytes((tag,)))[0] != tag:
        raise ValueError(f"{cls.__name__} already has class tag "
                         f"{CLASS_TAGS[cls][0]:#x}, not {tag:#x}")


def canonical_cacheable(cls):
    """Class decorator: opt a frozen dataclass into canonical-bytes caching.

    Only for classes whose canonical encoding can never change: every field
    reachable from the instance must be immutable (scalars, bytes, tuples,
    further cacheable dataclasses).  A frozen dataclass holding a mutable
    payload (e.g. an opaque state snapshot) must NOT be decorated.  The class
    needs an instance ``__dict__`` — caching is how these classes trade the
    ``__slots__`` footprint optimisation for encode-once behaviour.
    """
    if "__slots__" in cls.__dict__ and "__dict__" not in cls.__dict__["__slots__"]:
        raise TypeError(
            f"{cls.__name__} uses __slots__; canonical caching needs an "
            "instance __dict__ to pin the encoding on")
    cls.__canonical_cacheable__ = True
    return cls


def canonical_bytes(value: Any, use_cache: bool = True) -> bytes:
    """Encode ``value`` into its canonical byte string (see the module doc).

    Supports ``None``, booleans, integers, floats, strings, bytes,
    dataclasses with a class tag, and lists/tuples/dicts/sets of those;
    anything else raises :class:`TypeError`.  ``use_cache=False`` bypasses
    (and does not populate) the per-instance caches of
    :func:`canonical_cacheable` dataclasses.
    """
    out = bytearray()
    handler = _DISPATCH.get(type(value))
    if handler is not None:
        handler(value, out, use_cache)
    else:
        _encode_fallback(value, out, use_cache)
    return bytes(out)


def _encode(value: Any, out: bytearray, use_cache: bool = True) -> None:
    # Exact-type dispatch; unseen types (every dataclass on first contact,
    # subclasses of the builtins) go through the fallback, which registers
    # a handler so the next instance dispatches in one dict lookup.
    handler = _DISPATCH.get(type(value))
    if handler is not None:
        handler(value, out, use_cache)
    else:
        _encode_fallback(value, out, use_cache)


#: one-byte varints, and the f64 spelling of every NaN.
_SMALL = tuple(bytes((n,)) for n in range(0x80))
_NAN = struct.pack(">d", float("nan"))
_pack_double = struct.Struct(">d").pack


def uvarint(n: int) -> bytes:
    """Unsigned LEB128 of ``n``; :class:`TypeError` past the varint cap."""
    if n < 0x80:
        return _SMALL[n]
    if n < 0x4000:
        return bytes(((n & 0x7F) | 0x80, n >> 7))
    if n < 0x200000:
        return bytes(((n & 0x7F) | 0x80, ((n >> 7) & 0x7F) | 0x80, n >> 14))
    out = bytearray()
    while n >= 0x80:
        out.append((n & 0x7F) | 0x80)
        n >>= 7
    out.append(n)
    if len(out) > MAX_VARINT_BYTES:
        raise TypeError(f"integer needs {len(out)} varint bytes; the "
                        f"encoding caps them at {MAX_VARINT_BYTES}")
    return bytes(out)


def double(value: float) -> bytes:
    """The f64 body of a float (every NaN spelled as one)."""
    return _pack_double(value) if value == value else _NAN


#: bodies of recurring scalars (sequence numbers, view numbers, replica and
#: client names recur across millions of messages); capped so data-driven
#: values cannot grow them without bound.  A body depends on the value only,
#: so an equal int or str subclass may read it; only exact types store one.
_INT_BYTES: dict[int, bytes] = {}
_STR_BYTES: dict[str, bytes] = {}
_SCALAR_BYTES_MAX = 8192


def int_body(value: int) -> bytes:
    """The zigzag varint of an ``int`` (memoised for exact ints)."""
    body = uvarint(value << 1 if value >= 0 else (~value << 1) | 1)
    if type(value) is int and len(_INT_BYTES) < _SCALAR_BYTES_MAX:
        _INT_BYTES[value] = body
    return body


def str_body(value: str) -> bytes:
    """Length-prefixed utf-8 of a ``str`` (memoised for exact strs)."""
    encoded = value.encode()
    body = uvarint(len(encoded)) + encoded
    if type(value) is str and len(_STR_BYTES) < _SCALAR_BYTES_MAX:
        _STR_BYTES[value] = body
    return body


def _encode_none(value: Any, out: bytearray, use_cache: bool) -> None:
    out.append(TAG_NONE)


def _encode_bool(value: Any, out: bytearray, use_cache: bool) -> None:
    out.append(TAG_TRUE if value else TAG_FALSE)


def _encode_int(value: Any, out: bytearray, use_cache: bool) -> None:
    out.append(TAG_INT)
    out += _INT_BYTES.get(value) or int_body(int(value))


def _encode_float(value: Any, out: bytearray, use_cache: bool) -> None:
    out.append(TAG_FLOAT)
    out += double(value)


def _encode_str(value: Any, out: bytearray, use_cache: bool) -> None:
    out.append(TAG_STR)
    out += _STR_BYTES.get(value) or str_body(value)


def _encode_bytes(value: Any, out: bytearray, use_cache: bool) -> None:
    out.append(TAG_BYTES)
    out += uvarint(len(value))
    out += value


def _encode_sequence(value: Any, out: bytearray, use_cache: bool) -> None:
    out.append(TAG_LIST)
    out += uvarint(len(value))
    for item in value:
        _encode(item, out, use_cache)


def _sorted_encodings(pairs: list, what: str) -> list:
    """``(encoding, item)`` pairs in ascending encoding order, all distinct."""
    pairs.sort(key=itemgetter(0))
    if len({encoded for encoded, _ in pairs}) != len(pairs):
        raise TypeError(f"two {what} encode identically")
    return pairs


def _encode_set(value: Any, out: bytearray, use_cache: bool) -> None:
    out.append(TAG_SET)
    out += uvarint(len(value))
    for encoded, _ in _sorted_encodings(
            [(canonical_bytes(member, use_cache), member) for member in value],
            "set members"):
        out += encoded


#: encoded forms of recurring string dict keys (schema-level names);
#: capped so adversarial/data-driven keys cannot grow it without bound.
_KEY_BYTES: dict[str, bytes] = {}
_KEY_BYTES_MAX = 4096


def key_bytes(key: Any, use_cache: bool = True) -> bytes:
    """The canonical encoding of a dict key (string keys memoised)."""
    if type(key) is not str:
        return canonical_bytes(key, use_cache)
    encoded = _KEY_BYTES.get(key)
    if encoded is None:
        encoded = bytes((TAG_STR,)) + str_body(key)
        if len(_KEY_BYTES) < _KEY_BYTES_MAX:
            _KEY_BYTES[key] = encoded
    return encoded


def _encode_dict(value: Any, out: bytearray, use_cache: bool) -> None:
    out.append(TAG_DICT)
    out += uvarint(len(value))
    for encoded, key in _sorted_encodings(
            [(_KEY_BYTES.get(key) or key_bytes(key, use_cache), key)
             for key in value], "dict keys"):
        out += encoded
        _encode(value[key], out, use_cache)


_DISPATCH: dict[type, Any] = {
    type(None): _encode_none,
    bool: _encode_bool,
    int: _encode_int,
    float: _encode_float,
    str: _encode_str,
    bytes: _encode_bytes,
    dict: _encode_dict,
    list: _encode_sequence,
    tuple: _encode_sequence,
    set: _encode_set,
    frozenset: _encode_set,
}


def _encode_fallback(value: Any, out: bytearray, use_cache: bool) -> None:
    """Subclasses of the builtins and dataclasses; registers a handler.

    A bool-before-int check and a dataclass check ahead of the container
    checks keep subclasses encoding as the value they stand for.
    """
    cls = type(value)
    for base, handler in ((bool, _encode_bool), (int, _encode_int),
                          (float, _encode_float), (str, _encode_str),
                          (bytes, _encode_bytes), (bytearray, _encode_bytes)):
        if isinstance(value, base):
            _DISPATCH.setdefault(cls, handler)
            return handler(value, out, use_cache)
    if is_dataclass(value) and not isinstance(value, type):
        return _DISPATCH.setdefault(cls, _dataclass_encoder(cls))(
            value, out, use_cache)
    for base, handler in ((dict, _encode_dict), ((list, tuple), _encode_sequence),
                          ((set, frozenset), _encode_set)):
        if isinstance(value, base):
            return handler(value, out, use_cache)
    raise TypeError(f"cannot canonically encode values of type {cls!r}")


def class_fields(cls: type) -> tuple[tuple[str, Any], ...]:
    """``(attribute, resolved type hint or None)`` per field, in order."""
    try:
        hints = get_type_hints(cls)
    except Exception:  # unresolvable annotations: encode/decode untyped
        hints = {}
    return tuple((f.name, hints.get(f.name)) for f in fields(cls))


def optional_of(hint: Any) -> Any:
    """``X`` when ``hint`` is ``Optional[X]``, else ``None``."""
    if get_origin(hint) in (Union, UnionType):
        inner = [arg for arg in get_args(hint) if arg is not type(None)]
        if len(inner) == 1 and len(get_args(hint)) == 2:
            return inner[0]
    return None



def sequence_of(hint: Any) -> Any:
    """``X`` when ``hint`` is ``tuple[X, ...]``, ``object`` for a bare
    ``tuple``, else ``None``: the hints encoded as a typed sequence."""
    if hint is tuple:
        return object
    args = get_args(hint)
    if get_origin(hint) is tuple and len(args) == 2 and args[1] is Ellipsis:
        return args[0]
    return None


class FunctionSource:
    """One generated function in the making: its lines and its bindings.

    The generators only ever compile text they assembled themselves from
    class and field names; values (classes, memos, tables) reach
    the function through ``namespace``, never through the text.
    """

    def __init__(self, namespace: dict[str, Any]) -> None:
        self.lines: list[str] = []
        self.namespace = namespace

    def bind(self, value: Any) -> str:
        """A fresh global name for ``value`` in the generated function."""
        name = f"_k{len(self.namespace)}"
        self.namespace[name] = value
        return name

    def line(self, indent: str, text: str) -> None:
        self.lines.append(indent + text)

    def store_fields(self, indent: str, target: str, cls: type,
                     values: list[str], pinned: str | None = None) -> None:
        """Statements storing ``values`` as the fields of ``target``.

        ``target`` is a bare ``cls`` instance (``object.__new__``); the
        statements are what ``cls.__init__`` does whenever
        :func:`constructs_by_storing` holds: each value goes straight into
        the instance ``__dict__`` or its slot, never through
        ``object.__setattr__``.  ``pinned`` (an expression) is stored as the
        canonical-encoding cache as well, on a ``__dict__``-backed class.
        """
        names = [f.name for f in fields(cls)]
        if _slotted(cls):
            for name, value in zip(names, values):
                setter = self.bind(getattr(cls, name).__set__)
                self.line(indent, f"{setter}({target}, {value})")
            return
        self.line(indent, f"_d = {target}.__dict__")
        for name, value in zip(names, values):
            self.line(indent, f"_d[{name!r}] = {value}")
        if cls.__dict__.get("__hash__") is _memoised_hash:
            hashed = [value for f, value in zip(fields(cls), values)
                      if (f.compare if f.hash is None else f.hash)]
            self.line(indent, f"_d[{_HASH_MEMO!r}] = "
                              f"{self.bind(hash)}(({', '.join(hashed)},))")
        if pinned is not None:
            self.line(indent, f"_d[{_CANONICAL_CACHE!r}] = {pinned}")

    def compile(self, filename: str, function: str):
        exec(compile("\n".join(self.lines), filename, "exec"), self.namespace)
        return self.namespace[function]


# ---------------------------------------------------------------------------
# generated per-class constructors
# ---------------------------------------------------------------------------
# A frozen dataclass's ``__init__`` stores every field through
# ``object.__setattr__`` (its own ``__setattr__`` refuses), one builtin call
# per field; for the value types built once or more per message that is most
# of their construction cost.  :func:`stores_fields` gives such a class an
# ``__init__`` generated from its field list — same signature, same
# defaults — that stores straight into the instance ``__dict__`` or slots,
# and the wire decoders emit the very same statements inline
# (:meth:`FunctionSource.store_fields`), so a value is built one way whether
# a replica constructed it or decoded it off the wire.

#: where :func:`stores_fields` ``(memoise_hash=True)`` pins the field hash.
_HASH_MEMO = "_repro_hash"


def _slotted(cls: type) -> bool | None:
    """True when ``cls`` instances are fully slotted, False when fully
    ``__dict__``-backed, None when part of the hierarchy is each."""
    slotted = ["__slots__" in vars(base) for base in cls.__mro__[:-1]]
    return True if all(slotted) else (None if any(slotted) else False)


def _memoised_hash(self) -> int:
    return self._repro_hash


def stores_fields(cls=None, *, memoise_hash: bool = False):
    """Class decorator: a generated constructor that stores fields directly.

    For dataclasses (frozen ones especially) whose ``__init__`` only stores
    its fields: no ``__post_init__``, no ``default_factory``, no ``init=False``
    or keyword-only field, and no field name starting with an underscore
    (the generated code's own names do).  The generated ``__init__`` has the
    dataclass's signature, defaults and annotations, and frozen instances
    still refuse assignment.

    ``memoise_hash=True`` computes the dataclass hash — ``hash`` of the
    tuple of hashed fields, the same value — once, at construction, and
    ``__hash__`` returns it.  Only for classes no code clones with a field
    rewritten (as :func:`drop_whole_value_caches` callers do).
    """
    if cls is None:
        return lambda cls: stores_fields(cls, memoise_hash=memoise_hash)
    if not (isinstance(cls, type) and is_dataclass(cls)):
        raise TypeError(f"stores_fields needs a dataclass, not {cls!r}")
    members = fields(cls)
    problems = [f"field {f.name!r} is not a plain, public positional "
                "parameter"
                for f in members
                if not f.init or getattr(f, "kw_only", False)
                or f.default_factory is not MISSING or f.name.startswith("_")]
    if hasattr(cls, "__post_init__"):
        problems.append("it defines __post_init__")
    if _slotted(cls) is None:
        problems.append("its instances are part slotted, part __dict__-backed")
    if memoise_hash and (_slotted(cls)
                         or not cls.__dataclass_params__.frozen):
        problems.append("a memoised hash needs a frozen, __dict__-backed class")
    if problems:
        raise TypeError(f"cannot generate a storing constructor for "
                        f"{cls.__name__}: {'; '.join(problems)}")
    if memoise_hash:
        cls.__hash__ = _memoised_hash
    source = FunctionSource({})
    params = [f.name if f.default is MISSING
              else f"{f.name}={source.bind(f.default)}" for f in members]
    source.line("", f"def __init__(self, {', '.join(params)}):")
    source.store_fields(" ", "self", cls, [f.name for f in members])
    init = source.compile(f"<generated constructor {cls.__name__}>",
                          "__init__")
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = {**{f.name: f.type for f in members},
                            "return": None}
    init.__stores_fields__ = True
    cls.__init__ = init
    return cls


def constructs_by_storing(cls: type) -> bool:
    """Whether building ``cls`` is nothing but storing its fields.

    True for a constructor generated by :func:`stores_fields`, and for the
    ``__init__`` ``@dataclass`` wrote for exactly this class when there is no
    ``__post_init__`` and instances are fully slotted or fully
    ``__dict__``-backed; anything else must be constructed by calling it.
    """
    init = cls.__dict__.get("__init__")
    if getattr(init, "__stores_fields__", False):
        return True
    return (getattr(init, "__qualname__", None) == f"{cls.__qualname__}.__init__"
            and init.__code__.co_filename == "<string>"
            and not hasattr(cls, "__post_init__")
            and _slotted(cls) is not None)


# ---------------------------------------------------------------------------
# generated per-class encoders
# ---------------------------------------------------------------------------
# Everything about a dataclass's encoding except its field values is static:
# the class tag, the field order and, from the type hints, how each field is
# spelled.  So each class gets one straight-line encoder, generated on its
# first encode: constant bytes are pre-joined, scalars are read from the
# memos, nested cacheable records are spliced from their pinned bytes and
# other nested records are inlined.  A typed field is guarded by an exact
# type check; a value the hint does not admit raises :class:`TypeError`.
# The same generator serves the dict projections of
# :func:`encode_fixed_attrs` and :func:`encode_fixed_key_dict`, whose values
# are tagged: there a hint only picks the fast branch, and anything else
# goes through :func:`_encode`.

def _mismatch(where: str, declared: str, value: Any) -> TypeError:
    return TypeError(f"{where} is declared {declared}, not "
                     f"{type(value).__name__} ({value!r:.60})")


def _typed_int(value: Any, where: str) -> bytes:
    """The body of an ``int`` field holding a non-exact int (an enum)."""
    if isinstance(value, int) and not isinstance(value, bool):
        return int_body(int(value))
    raise _mismatch(where, "int", value)


def _typed_str(value: Any, where: str) -> bytes:
    if isinstance(value, str):
        return str_body(value)
    raise _mismatch(where, "str", value)


def _typed_bytes(value: Any, where: str) -> bytes:
    if isinstance(value, (bytes, bytearray)):
        return uvarint(len(value)) + value
    raise _mismatch(where, "bytes", value)


class _EncoderSource(FunctionSource):
    """An encoder in the making: adjacent constant bytes become one append."""

    def __init__(self) -> None:
        super().__init__({
            "_encode": _encode, "_mismatch": _mismatch,
            "_typed_int": _typed_int, "_typed_str": _typed_str,
            "_typed_bytes": _typed_bytes, "_INT": _INT_BYTES.get,
            "_STR": _STR_BYTES.get, "int_body": int_body,
            "str_body": str_body, "uvarint": uvarint, "double": double,
            "_SMALL": _SMALL, "_CACHE": _CANONICAL_CACHE,
            "_setattr": object.__setattr__})
        self._literal = b""
        self._literal_indent = ""
        self._names = 0

    def fresh(self, stem: str) -> str:
        self._names += 1
        return f"{stem}{self._names}"

    def literal(self, indent: str, data: bytes) -> None:
        """Constant bytes; adjacent ones are joined into one append."""
        if self._literal_indent != indent:
            self.flush()
        self._literal += data
        self._literal_indent = indent

    def flush(self) -> None:
        if self._literal:
            super().line(self._literal_indent, f"out += {self._literal!r}")
            self._literal = b""

    def line(self, indent: str, text: str) -> None:
        self.flush()
        super().line(indent, text)

    def typed(self, indent: str, var: str, hint: Any, where: str,
              inlining: frozenset = frozenset()) -> None:
        """Statements appending ``var`` spelled as a field hinted ``hint``."""
        inner = optional_of(hint)
        if inner is not None:
            self.line(indent, f"if {var} is None:")
            self.literal(indent + " ", b"\x00")
            self.line(indent, "else:")
            self.literal(indent + " ", b"\x01")
            self.typed(indent + " ", var, inner, where, inlining)
            return
        where_ = self.bind(where)
        if hint is int or hint is str:
            memo, slow = ("_INT", "_typed_int") if hint is int \
                else ("_STR", "_typed_str")
            body = "int_body" if hint is int else "str_body"
            self.line(indent, f"if type({var}) is {hint.__name__}:")
            self.line(indent, f" out += {memo}({var}) or {body}({var})")
            self.line(indent, "else:")
            self.line(indent, f" out += {slow}({var}, {where_})")
        elif hint is bytes:
            self.line(indent, f"if type({var}) is bytes:")
            self.line(indent, f" _n = len({var})")
            self.line(indent, " out += _SMALL[_n] if _n < 128 else uvarint(_n)")
            self.line(indent, f" out += {var}")
            self.line(indent, "else:")
            self.line(indent, f" out += _typed_bytes({var}, {where_})")
        elif hint is bool:
            self.line(indent, f"if {var} is True:")
            self.literal(indent + " ", b"\x01")
            self.line(indent, f"elif {var} is False:")
            self.literal(indent + " ", b"\x00")
            self.line(indent, "else:")
            self.line(indent, f" raise _mismatch({where_}, 'bool', {var})")
        elif hint is float:
            self.line(indent, f"if type({var}) is not float:")
            self.line(indent, f" raise _mismatch({where_}, 'float', {var})")
            self.line(indent, f"out += double({var})")
        elif sequence_of(hint) is not None:
            item = self.fresh("_i")
            self.line(indent, f"if type({var}) is not tuple:")
            self.line(indent, f" raise _mismatch({where_}, 'a tuple', {var})")
            self.line(indent, f"out += uvarint(len({var}))")
            self.line(indent, f"for {item} in {var}:")
            self.typed(indent + " ", item, sequence_of(hint), where, inlining)
        elif isinstance(hint, type) and is_dataclass(hint):
            self.line(indent, f"if type({var}) is not {self.bind(hint)}:")
            self.line(indent, f" raise _mismatch({where_}, "
                              f"{hint.__name__!r}, {var})")
            self.nested(indent, var, hint, inlining)
        else:
            self.line(indent, f"_encode({var}, out, use_cache)")

    def nested(self, indent: str, var: str, cls: type,
               inlining: frozenset) -> None:
        """A record ``var`` known to be a ``cls``: its pinned bytes if it
        has them, else inlined (and pinned); a class already being inlined
        goes through :func:`_encode`."""
        if cls in inlining or cls not in CLASS_TAGS:
            self.line(indent, f"_encode({var}, out, use_cache)")
        elif getattr(cls, "__canonical_cacheable__", False):
            cached, start = self.fresh("_c"), self.fresh("_st")
            self.line(indent, f"{cached} = {var}.__dict__.get(_CACHE) "
                              "if use_cache else None")
            self.line(indent, f"if {cached} is not None:")
            self.line(indent, f" out += {cached}")
            self.line(indent, "else:")
            self.line(indent + " ", f"{start} = len(out)")
            self.record(indent + " ", var, cls, inlining | {cls})
            self.line(indent + " ", "if use_cache:")
            self.line(indent + " ", f" _setattr({var}, _CACHE, "
                                    f"bytes(out[{start}:]))")
        else:
            self.record(indent, var, cls, inlining | {cls})

    def record(self, indent: str, var: str, cls: type,
               inlining: frozenset = frozenset()) -> None:
        """The tag and the fields of a ``cls`` instance held in ``var``."""
        self.literal(indent, CLASS_TAGS[cls])
        for attr, hint in class_fields(cls):
            value = self.fresh("_v")
            self.line(indent, f"{value} = {var}.{attr}")
            self.typed(indent, value, hint, f"{cls.__name__}.{attr}",
                       inlining)

    def tagged(self, indent: str, var: str, hint: Any) -> None:
        """Statements appending ``var`` as a tagged value; ``hint`` only
        picks a fast branch, every other value goes through :func:`_encode`."""
        generic = f"_encode({var}, out, use_cache)"
        inner = optional_of(hint)
        if inner is not None:
            self.line(indent, f"if {var} is None:")
            self.literal(indent + " ", bytes((TAG_NONE,)))
            self.line(indent, "else:")
            self.tagged(indent + " ", var, inner)
        elif hint is int or hint is str:
            memo = "_INT" if hint is int else "_STR"
            tag = TAG_INT if hint is int else TAG_STR
            self.line(indent, f"if type({var}) is {hint.__name__}:")
            self.line(indent, f" out.append({tag})")
            self.line(indent, f" out += {memo}({var}) or "
                              f"{'int_body' if hint is int else 'str_body'}"
                              f"({var})")
            self.line(indent, "else:")
            self.line(indent, " " + generic)
        elif hint is bytes:
            self.line(indent, f"if type({var}) is bytes:")
            self.line(indent, f" _n = len({var})")
            self.line(indent, f" out.append({TAG_BYTES})")
            self.line(indent, " out += _SMALL[_n] if _n < 128 else uvarint(_n)")
            self.line(indent, f" out += {var}")
            self.line(indent, "else:")
            self.line(indent, " " + generic)
        elif hint in CLASS_TAGS:
            # A record is spelled the same with or without a declared type.
            self.line(indent, f"if type({var}) is {self.bind(hint)}:")
            self.nested(indent + " ", var, hint, frozenset())
            self.line(indent, "else:")
            self.line(indent, " " + generic)
        elif sequence_of(hint) in CLASS_TAGS:
            item, cls = self.fresh("_i"), sequence_of(hint)
            self.line(indent, f"if type({var}) is tuple:")
            self.line(indent, f" out.append({TAG_LIST})")
            self.line(indent, f" out += uvarint(len({var}))")
            self.line(indent, f" for {item} in {var}:")
            self.line(indent, f"  if type({item}) is {self.bind(cls)}:")
            self.nested(indent + "   ", item, cls, frozenset())
            self.line(indent, "  else:")
            self.line(indent, f"   _encode({item}, out, use_cache)")
            self.line(indent, "else:")
            self.line(indent, " " + generic)
        else:
            self.line(indent, generic)

    def compile_encoder(self, name: str, cacheable: bool = False):
        """Wrap the body so far as ``encode(value, out, use_cache)``."""
        self.flush()
        body, self.lines = self.lines, []
        self.line("", "def encode(value, out, use_cache):")
        if cacheable:
            self.line(" ", "if use_cache:")
            self.line(" ", " _c = value.__dict__.get(_CACHE)")
            self.line(" ", " if _c is not None:")
            self.line(" ", "  out += _c")
            self.line(" ", "  return")
            self.line(" ", "_start = len(out)")
        self.lines += body
        if cacheable:
            self.line(" ", "if use_cache:")
            self.line(" ", " _setattr(value, _CACHE, bytes(out[_start:]))")
        return self.compile(f"<generated encoder {name}>", "encode")


def _dataclass_encoder(cls: type):
    """The generated record encoder of one tagged dataclass."""
    if cls not in CLASS_TAGS:
        raise TypeError(
            f"cannot canonically encode {cls.__name__}: a dataclass needs a "
            "class tag (register it with the wire registry)")
    source = _EncoderSource()
    source.record(" ", "value", cls, frozenset((cls,)))
    return source.compile_encoder(
        cls.__name__, getattr(cls, "__canonical_cacheable__", False))


def _projection_encoder(name: str, entries):
    """A tagged-dict encoder for ``(key, access expression, hint)`` entries."""
    source = _EncoderSource()
    ordered = sorted(entries, key=lambda entry: key_bytes(entry[0]))
    source.literal(" ", bytes((TAG_DICT,)) + uvarint(len(ordered)))
    for index, (key, access, hint) in enumerate(ordered):
        source.literal(" ", key_bytes(key))
        source.line(" ", f"_v{index} = {access}")
        source.tagged(" ", f"_v{index}", hint)
    return source.compile_encoder(name)


#: generated projection encoders, per owner class (and key set).
_PROJECTION_ENCODERS: dict[Any, Any] = {}


def encode_fixed_attrs(owner: type, names: tuple[str, ...],
                       instance: Any) -> bytes:
    """Canonical dict encoding of ``{name: getattr(instance, name)}``.

    Byte-identical to ``canonical_bytes({n: getattr(instance, n) for n in
    names})`` but never materialises the dict: a straight-line encoder for
    the key set, typed from ``owner``'s field hints, is generated on the
    first call.  This is how signed parts and payload digests that are
    plain projections of a message's fields get encoded.
    """
    encode = _PROJECTION_ENCODERS.get((owner, names))
    if encode is None:
        hints = dict(class_fields(owner))
        encode = _PROJECTION_ENCODERS[owner, names] = _projection_encoder(
            f"{owner.__name__}{list(names)}",
            [(name, f"value.{name}", hints.get(name)) for name in names])
    out = bytearray()
    encode(instance, out, True)
    return bytes(out)


def encode_fixed_key_dict(owner: type, part: dict) -> bytes:
    """Canonical encoding of a dict whose string key set is fixed per class.

    Byte-identical to ``canonical_bytes(part)``, through an encoder
    generated once per ``owner`` for the key set it first sees (a message's
    ``signed_part()`` keys are a literal per class).  A dict that does not
    match that key set, or has non-string keys, is encoded by
    :func:`canonical_bytes`.
    """
    compiled = _PROJECTION_ENCODERS.get(owner)
    if compiled is None:
        if not all(type(key) is str for key in part):
            return canonical_bytes(part)
        compiled = _PROJECTION_ENCODERS[owner] = (
            len(part), _projection_encoder(
                f"{owner.__name__}{sorted(part)}",
                [(key, f"value[{key!r}]", None) for key in part]))
    size, encode = compiled
    if len(part) != size:
        return canonical_bytes(part)
    out = bytearray()
    try:
        encode(part, out, True)
    except KeyError:
        return canonical_bytes(part)
    return bytes(out)


def pinned(instance: Any, attr: str, compute) -> Any:
    """Get-or-compute a value pinned on an instance's ``__dict__``.

    The one memoisation idiom behind every per-instance cache in the
    library (canonical encodings, payload/batch digests, signed-part
    bytes): read via ``__dict__`` so a missing cache is a plain miss, write
    via ``object.__setattr__`` so frozen dataclasses accept the pin.  Only
    for values that are pure functions of fields that can never change —
    and if the cached value covers a field some cloning path rewrites, that
    path must drop it (see :func:`drop_whole_value_caches`).
    """
    cached = instance.__dict__.get(attr)
    if cached is None:
        cached = compute()
        object.__setattr__(instance, attr, cached)
    return cached


def drop_whole_value_caches(state: dict) -> None:
    """Remove whole-value encoding caches from a copied instance ``__dict__``.

    For code that clones a cacheable frozen dataclass by copying its
    ``__dict__`` and changing a field: the canonical-bytes/digest caches
    cover *every* field and would be stale on the clone, while caches that
    explicitly exclude the changed field (a message's signed-part bytes, a
    request's payload digest) remain valid and are deliberately kept.
    """
    state.pop(_CANONICAL_CACHE, None)
    state.pop(_DIGEST_CACHE, None)


def digest(value: Any, use_cache: bool = True) -> bytes:
    """SHA-256 digest of the canonical encoding of ``value``."""
    if use_cache and getattr(value, "__canonical_cacheable__", False) \
            and is_dataclass(value) and not isinstance(value, type):
        return pinned(value, _DIGEST_CACHE,
                      lambda: hashlib.sha256(canonical_bytes(value)).digest())
    return hashlib.sha256(canonical_bytes(value, use_cache)).digest()


def digest_hex(value: Any) -> str:
    """Hex form of :func:`digest`, convenient for logs and test assertions."""
    return digest(value).hex()


def combine_digests(*digests: bytes) -> bytes:
    """Hash a sequence of digests into one (used for batch digests)."""
    h = hashlib.sha256()
    for d in digests:
        h.update(d)
    return h.digest()

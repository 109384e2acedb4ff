"""Canonical serialisation and SHA-256 digests.

Replicas agree on *digests* of client transactions (the paper writes
``Δ := Hash(⟨T⟩c)``), so every message that mentions a transaction carries a
deterministic, collision-resistant fingerprint rather than the payload.  The
helpers here turn arbitrary plain-data Python values into a canonical byte
string first, so that logically equal values always hash to the same digest
regardless of dict insertion order or container type.

Memoisation
-----------

Canonical encoding dominated deployment profiles: the same frozen message is
re-serialised every time it is signed, verified, batched or re-verified.
Frozen dataclasses whose fields can never change may opt into **per-instance
caching** with :func:`canonical_cacheable`; their canonical encoding and
digest are then computed once and pinned on the instance, which every later
encode (including as a field of an enclosing value) reuses.  The cache is
invisible to callers — ``canonical_bytes(value, use_cache=False)`` forces the
uncached path, and the property tests assert both paths agree on arbitrary
messages.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields, is_dataclass
from types import UnionType
from typing import Any, Union, get_args, get_origin, get_type_hints

DIGEST_SIZE = 32

#: instance attributes the memoised paths pin on cacheable dataclasses.
_CANONICAL_CACHE = "_repro_canonical_cache"
_DIGEST_CACHE = "_repro_digest_cache"


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
    """Encode ``value`` into a canonical byte string.

    Supports the plain-data types used throughout the library: ``None``,
    booleans, integers, floats, strings, bytes, (frozen) dataclasses, and
    lists/tuples/dicts/sets of those.  Dataclasses are encoded as their class
    name plus each field in declaration order; dicts and sets are encoded in
    sorted-key order so insertion order never leaks into digests.

    ``use_cache=False`` bypasses (and does not populate) the per-instance
    caches of :func:`canonical_cacheable` dataclasses.
    """
    out = bytearray()
    _encode(value, out, use_cache)
    return bytes(out)


def _encode(value: Any, out: bytearray, use_cache: bool = True) -> None:
    # Exact-type dispatch: the isinstance chain this replaces was the single
    # hottest code path of a deployment run.  Unseen types (every dataclass
    # on first contact, rare subclasses) fall back to the chain, which
    # registers a specialised handler so the next instance dispatches in one
    # dict lookup.  Encodings are byte-identical to the chain's.
    handler = _DISPATCH.get(type(value))
    if handler is not None:
        handler(value, out, use_cache)
    else:
        _encode_fallback(value, out, use_cache)


def _encode_none(value: Any, out: bytearray, use_cache: bool) -> None:
    out += b"N"


def _encode_bool(value: Any, out: bytearray, use_cache: bool) -> None:
    out += b"T" if value else b"F"


#: encoded forms of recurring scalar values (sequence numbers, view numbers,
#: replica/client names recur across millions of messages); capped so
#: data-driven values cannot grow them without bound.  Keyed by the exact
#: built-in value only — a subclass (e.g. an IntEnum) may stringify
#: differently from the equal-hashing builtin, so it must never hit the memo.
_INT_BYTES: dict[int, bytes] = {}
_STR_BYTES: dict[str, bytes] = {}
_SCALAR_BYTES_MAX = 8192


def _token(tag: bytes, body: bytes) -> bytes:
    return tag + b"%d:" % len(body) + body


def _memoise(memo: dict, value: Any, tag: bytes, body: bytes) -> bytes:
    """The ``tag<len>:body`` token of a scalar, remembered while there is room."""
    token = _token(tag, body)
    if len(memo) < _SCALAR_BYTES_MAX:
        memo[value] = token
    return token


def _encode_int(value: Any, out: bytearray, use_cache: bool) -> None:
    if type(value) is int:
        # .get, not try/except: once a long run has filled the memo every
        # new value misses, and a raised KeyError costs more than the encode.
        out += (_INT_BYTES.get(value)
                or _memoise(_INT_BYTES, value, b"i", str(value).encode()))
        return
    encoded = str(value).encode()
    out += b"i%d:" % len(encoded) + encoded


def _encode_float(value: Any, out: bytearray, use_cache: bool) -> None:
    encoded = repr(value).encode()
    out += b"f%d:" % len(encoded) + encoded


def _encode_str(value: Any, out: bytearray, use_cache: bool) -> None:
    if type(value) is str:
        out += (_STR_BYTES.get(value)
                or _memoise(_STR_BYTES, value, b"s", value.encode()))
        return
    encoded = value.encode()
    out += b"s%d:" % len(encoded) + encoded


def _encode_bytes(value: Any, out: bytearray, use_cache: bool) -> None:
    out += b"b%d:" % len(value) + bytes(value)


def _sorted_members(values) -> list:
    # All-string collections (the overwhelmingly common case: signed-part
    # dict keys) sort on repr directly — same order as ``_sort_key``, whose
    # first tuple element is constant when every type matches, without a
    # Python-level key function.
    members = list(values)
    if all(type(member) is str for member in members):
        members.sort(key=repr)
    else:
        members.sort(key=_sort_key)
    return members


#: encoded forms of recurring string dict keys (schema-level field names);
#: capped so adversarial/data-driven keys cannot grow it without bound.
_KEY_BYTES: dict[str, bytes] = {}
_KEY_BYTES_MAX = 4096


def _encode_dict(value: Any, out: bytearray, use_cache: bool) -> None:
    out += b"M"
    for key in _sorted_members(value):
        if type(key) is str:
            key_bytes = _KEY_BYTES.get(key)
            if key_bytes is None:
                encoded = key.encode()
                key_bytes = b"s%d:" % len(encoded) + encoded
                if len(_KEY_BYTES) < _KEY_BYTES_MAX:
                    _KEY_BYTES[key] = key_bytes
            out += key_bytes
        else:
            _encode(key, out, use_cache)
        _encode(value[key], out, use_cache)
    out += b"m"


def _encode_sequence(value: Any, out: bytearray, use_cache: bool) -> None:
    out += b"L"
    for item in value:
        _encode(item, out, use_cache)
    out += b"l"


def _encode_set(value: Any, out: bytearray, use_cache: bool) -> None:
    out += b"S"
    for item in _sorted_members(value):
        _encode(item, out, use_cache)
    out += b"s"


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
    """The original isinstance chain; registers a handler for exact types.

    Keeps the chain's semantics for subclasses (a bool-before-int check, a
    dataclass check ahead of the container checks) so exotic values encode
    exactly as before dispatch specialisation existed.
    """
    cls = type(value)
    if value is None:
        out += b"N"
    elif isinstance(value, bool):
        _encode_bool(value, out, use_cache)
        _DISPATCH.setdefault(cls, _encode_bool)
    elif isinstance(value, int):
        _encode_int(value, out, use_cache)
        _DISPATCH.setdefault(cls, _encode_int)
    elif isinstance(value, float):
        _encode_float(value, out, use_cache)
        _DISPATCH.setdefault(cls, _encode_float)
    elif isinstance(value, str):
        _encode_str(value, out, use_cache)
        _DISPATCH.setdefault(cls, _encode_str)
    elif isinstance(value, (bytes, bytearray)):
        _encode_bytes(value, out, use_cache)
        if cls is bytearray:
            # bytearray is mutable: encode per call, never specialise beyond
            # the generic handler (which copies the current contents).
            _DISPATCH.setdefault(cls, _encode_bytes)
    elif is_dataclass(value) and not isinstance(value, type):
        _DISPATCH.setdefault(cls, _dataclass_encoder(cls))(
            value, out, use_cache)
    elif isinstance(value, dict):
        _encode_dict(value, out, use_cache)
    elif isinstance(value, (list, tuple)):
        _encode_sequence(value, out, use_cache)
    elif isinstance(value, (set, frozenset)):
        _encode_set(value, out, use_cache)
    else:
        raise TypeError(f"cannot canonically encode values of type {type(value)!r}")


# ---------------------------------------------------------------------------
# generated per-class encoders
# ---------------------------------------------------------------------------
# Everything about a dataclass's encoding except its field values is static:
# the class-name header, the field names and their order, and (from the type
# hints) which scalar handler each value will almost certainly need.  So each
# class gets one straight-line encoder, generated on its first encode: the
# constant bytes between values are pre-joined, hinted scalars are inlined
# against the value memos, and nested cacheable dataclasses are spliced from
# their pinned bytes.  Hints are never trusted — every inlined branch is
# guarded by an exact type check and anything else goes through
# :func:`_encode` — so the output is byte-identical to encoding field by
# field.  The same generator serves the ``M``/``m`` projections of
# :func:`encode_fixed_attrs` and :func:`encode_fixed_key_dict`.

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


def tuple_of(hint: Any) -> Any:
    """``X`` when ``hint`` is ``tuple[X, ...]``, else ``None``."""
    args = get_args(hint)
    if get_origin(hint) is tuple and len(args) == 2 and args[1] is Ellipsis:
        return args[0]
    return None


class FunctionSource:
    """One generated function in the making: its lines and its bindings.

    The generators only ever compile text they assembled themselves from
    class and field names; values (classes, memos, compiled patterns) reach
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

    def compile(self, filename: str, function: str):
        exec(compile("\n".join(self.lines), filename, "exec"), self.namespace)
        return self.namespace[function]


class _EncoderSource(FunctionSource):
    """An encoder in the making: adjacent constant bytes become one append."""

    def __init__(self) -> None:
        super().__init__({
            "_encode": _encode, "_memoise": _memoise,
            "_INT_BYTES": _INT_BYTES, "_STR_BYTES": _STR_BYTES,
            "_INT_BYTES_get": _INT_BYTES.get, "_STR_BYTES_get": _STR_BYTES.get,
            "_CACHE": _CANONICAL_CACHE, "_setattr": object.__setattr__})
        self._literal = b""
        self._literal_indent = ""

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

    def value(self, indent: str, var: str, hint: Any) -> None:
        """Statements appending the encoding of local ``var`` to ``out``."""
        generic = f"_encode({var}, out, use_cache)"
        inner = optional_of(hint)
        if inner is not None:
            self.line(indent, f"if {var} is None:")
            self.literal(indent + " ", b"N")
            self.line(indent, "else:")
            self.value(indent + " ", var, inner)
        elif hint is int or hint is str:
            memo, miss = (
                ("_INT_BYTES", f"b'i', str({var}).encode()") if hint is int
                else ("_STR_BYTES", f"b's', {var}.encode()"))
            self.line(indent, f"if type({var}) is {hint.__name__}:")
            self.line(indent, f" out += ({memo}_get({var})"
                              f" or _memoise({memo}, {var}, {miss}))")
            self.line(indent, "else:")
            self.line(indent, " " + generic)
        elif hint is bytes:
            self.line(indent, f"if type({var}) is bytes:")
            self.line(indent, f" out += b'b%d:' % len({var})")
            self.line(indent, f" out += {var}")
            self.line(indent, "else:")
            self.line(indent, " " + generic)
        elif hint is bool:
            self.line(indent, f"if {var} is True:")
            self.literal(indent + " ", b"T")
            self.line(indent, f"elif {var} is False:")
            self.literal(indent + " ", b"F")
            self.line(indent, "else:")
            self.line(indent, " " + generic)
        elif hint is float:
            self.line(indent, f"if type({var}) is float:")
            self.line(indent, f" _e = repr({var}).encode()")
            self.line(indent, " out += b'f%d:' % len(_e)")
            self.line(indent, " out += _e")
            self.line(indent, "else:")
            self.line(indent, " " + generic)
        elif tuple_of(hint) is not None:
            item = f"_i{len(indent)}"
            self.line(indent, f"if type({var}) is tuple:")
            self.literal(indent + " ", b"L")
            self.line(indent, f" for {item} in {var}:")
            self.value(indent + "  ", item, tuple_of(hint))
            self.literal(indent + " ", b"l")
            self.line(indent, "else:")
            self.line(indent, " " + generic)
        elif (isinstance(hint, type) and is_dataclass(hint)
              and getattr(hint, "__canonical_cacheable__", False)):
            # Splice the nested instance's pinned bytes without a call.
            self.line(indent, f"_c = ({var}.__dict__.get(_CACHE) if use_cache"
                              f" and type({var}) is {self.bind(hint)}"
                              " else None)")
            self.line(indent, "if _c is not None:")
            self.line(indent, " out += _c")
            self.line(indent, "else:")
            self.line(indent, " " + generic)
        else:
            self.line(indent, generic)


def _generate_encoder(name: str, opener: bytes, closer: bytes, entries,
                      cacheable: bool = False):
    """One ``encode(value, out, use_cache)`` for a fixed entry list.

    ``entries`` is ``(key, access expression over ``value``, hint)`` per
    encoded member, already in encoding order.
    """
    source = _EncoderSource()
    source.line("", "def encode(value, out, use_cache):")
    if cacheable:
        source.line(" ", "if use_cache:")
        source.line(" ", " _c = value.__dict__.get(_CACHE)")
        source.line(" ", " if _c is not None:")
        source.line(" ", "  out += _c")
        source.line(" ", "  return")
        source.line(" ", "_start = len(out)")
    source.literal(" ", opener)
    for index, (key, access, hint) in enumerate(entries):
        source.literal(" ", _token(b"s", key.encode()))
        source.line(" ", f"_v{index} = {access}")
        source.value(" ", f"_v{index}", hint)
    source.literal(" ", closer)
    if cacheable:
        source.line(" ", "if use_cache:")
        source.line(" ", " _setattr(value, _CACHE, bytes(out[_start:]))")
    source.flush()
    return source.compile(f"<generated encoder {name}>", "encode")


def _dataclass_encoder(cls: type):
    """The generated ``D…d`` encoder of one dataclass (pins cacheable ones)."""
    return _generate_encoder(
        cls.__name__, _token(b"D", cls.__name__.encode()), b"d",
        [(attr, f"value.{attr}", hint) for attr, hint in class_fields(cls)],
        cacheable=getattr(cls, "__canonical_cacheable__", False))


#: generated ``M…m`` projection encoders, per owner class (and key set).
_PROJECTION_ENCODERS: dict[Any, Any] = {}


def encode_fixed_attrs(owner: type, names: tuple[str, ...],
                       instance: Any) -> bytes:
    """Canonical dict encoding of ``{name: getattr(instance, name)}``.

    Byte-identical to ``canonical_bytes({n: getattr(instance, n) for n in
    names})`` but never materialises the dict: a straight-line encoder for
    the sorted key set, typed from ``owner``'s field hints, is generated on
    the first call.  This is how signed parts and payload digests that are
    plain projections of a message's fields get encoded.
    """
    encode = _PROJECTION_ENCODERS.get((owner, names))
    if encode is None:
        hints = dict(class_fields(owner))
        encode = _PROJECTION_ENCODERS[owner, names] = _generate_encoder(
            f"{owner.__name__}{list(names)}", b"M", b"m",
            [(name, f"value.{name}", hints.get(name))
             for name in sorted(names, key=repr)])
    out = bytearray()
    encode(instance, out, True)
    return bytes(out)


def encode_fixed_key_dict(owner: type, part: dict) -> bytes:
    """Canonical encoding of a dict whose string key set is fixed per class.

    Byte-identical to ``canonical_bytes(part)`` — same ``M``/``m`` framing,
    same sorted-key order — through an encoder generated once per ``owner``
    for the key set it first sees (a message's ``signed_part()`` keys are a
    literal per class).  A dict that does not match that key set, or has
    non-string keys, is encoded by :func:`canonical_bytes` as before.
    """
    compiled = _PROJECTION_ENCODERS.get(owner)
    if compiled is None:
        keys = tuple(_sorted_members(part))
        if not all(type(key) is str for key in keys):
            return canonical_bytes(part)
        compiled = _PROJECTION_ENCODERS[owner] = (len(keys), _generate_encoder(
            f"{owner.__name__}{list(keys)}", b"M", b"m",
            [(key, f"value[{key!r}]", None) for key in keys]))
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


def _sort_key(value: Any) -> tuple[str, str]:
    return (type(value).__name__, repr(value))


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

"""SHA-256 over sorted-key JSON: the identity of result rows and specs.

The determinism digests (:func:`repro.perf.metrics_digest`, a matrix
result's ``row_digest``) and the matrix cell hash
(:meth:`repro.runtime.spec.DeploymentSpec.cell_hash`) hash a value's
sorted-key, compact JSON text, never the wire codec's bytes, so changing
how messages are encoded moves none of them.  A committed baseline's digest
is therefore recomputable from its JSON file alone::

    json_digest(json.load(open("BENCH_fig1.json"))["rows"])

A dataclass hashes as ``{"__class__": name, <field>: <value>, ...}`` (every
field, in any order: the keys are sorted); JSON's own types pass through,
tuples as lists; any other type raises :class:`TypeError`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields, is_dataclass
from typing import Any


def _dataclass_fields(value: Any) -> dict:
    if is_dataclass(value) and not isinstance(value, type):
        return {"__class__": type(value).__name__,
                **{f.name: getattr(value, f.name) for f in fields(value)}}
    raise TypeError(f"cannot hash values of type {type(value)!r} as JSON")


def json_text(value: Any) -> str:
    """The sorted-key, compact JSON text :func:`json_digest` hashes."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      default=_dataclass_fields)


def json_digest(value: Any) -> str:
    """Hex SHA-256 of :func:`json_text` of ``value``."""
    return hashlib.sha256(json_text(value).encode("utf-8")).hexdigest()

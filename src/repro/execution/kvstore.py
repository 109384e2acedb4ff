"""YCSB-style key-value store used as the replicated application.

The paper's evaluation runs YCSB over a 600 k-record store (Section 9.2).
This module provides the deterministic key-value state machine those
operations run against: ``read``, ``write`` (a.k.a. update), ``insert`` and
``read-modify-write``.
"""

from __future__ import annotations

import hashlib
from typing import Any

from .state_machine import Operation, OperationResult, StateMachine


class KeyValueStore(StateMachine):
    """In-memory deterministic key-value store."""

    SUPPORTED_ACTIONS = ("read", "write", "insert", "rmw", "delete")

    def __init__(self, records: int = 0, value_size: int = 16) -> None:
        self._data: dict[str, str] = {}
        self._applied = 0
        if records:
            self.preload(records, value_size)

    # ------------------------------------------------------------- loading
    def preload(self, records: int, value_size: int = 16) -> None:
        """Populate ``records`` keys with deterministic initial values.

        The initial values are a pure function of ``(records, value_size)``
        and every replica of every deployment preloads the same ones, so they
        are hashed once per process and copied thereafter — a deployment
        build is a dict copy, not ``records`` SHA-256 calls per replica.
        """
        cache_key = (records, value_size)
        base = _PRELOAD_CACHE.get(cache_key)
        if base is None:
            base = {key: _initial_value(key, value_size)
                    for key in (f"user{index}" for index in range(records))}
            _PRELOAD_CACHE[cache_key] = base
        self._data.update(base)

    # --------------------------------------------------------- application
    def apply(self, operation: Operation) -> OperationResult:
        """Apply one YCSB operation; unknown actions fail deterministically."""
        self._applied += 1
        action = operation.action
        if action == "read":
            value = self._data.get(operation.key)
            if value is None:
                return _RESULT_MISSING
            return OperationResult(ok=True, value=value)
        if action in ("write", "insert"):
            self._data[operation.key] = operation.value
            return _RESULT_OK
        if action == "rmw":
            current = self._data.get(operation.key, "")
            updated = _merge(current, operation.value)
            self._data[operation.key] = updated
            return OperationResult(ok=True, value=updated)
        if action == "delete":
            return _RESULT_OK if self._data.pop(operation.key, None) is not None \
                else _RESULT_MISSING
        return OperationResult(ok=False, value=f"unknown action {action!r}")

    # ------------------------------------------------------------ inspection
    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: str) -> str | None:
        """Direct read used by tests; not part of the replicated interface."""
        return self._data.get(key)

    @property
    def operations_applied(self) -> int:
        """Number of operations applied since construction."""
        return self._applied

    # ------------------------------------------------------------ snapshots
    def snapshot(self) -> Any:
        return dict(self._data)

    def restore(self, snapshot: Any) -> None:
        self._data = dict(snapshot)

    def state_digest(self) -> bytes:
        # SHA-256 over ``key=value;`` per entry in key order, fed a few
        # hundred entries per update: one call per entry was most of the
        # cost, one string for the whole store most of a checkpoint's memory.
        h = hashlib.sha256()
        data = self._data
        keys = sorted(data)
        for start in range(0, len(keys), 512):
            h.update("".join([f"{key}={data[key]};"
                              for key in keys[start:start + 512]]).encode())
        return h.digest()


#: interned constant results: every successful write/insert (and most
#: deletes) returns the same value, so sharing one immutable instance lets
#: the canonical-encoding cache make repeated reply digests near-free.
_RESULT_OK = OperationResult(ok=True)
_RESULT_MISSING = OperationResult(ok=False)

#: initial-store contents per ``(records, value_size)``; values are immutable
#: strings, so sharing them across state machines is safe.
_PRELOAD_CACHE: dict[tuple[int, int], dict[str, str]] = {}


def _initial_value(key: str, value_size: int) -> str:
    seed = hashlib.sha256(key.encode()).hexdigest()
    return (seed * (value_size // len(seed) + 1))[:value_size]


def _merge(current: str, update: str) -> str:
    return hashlib.sha256((current + update).encode()).hexdigest()[:max(len(update), 8)]

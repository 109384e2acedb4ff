"""Self-diagnosing stall watchdog for live runs.

A live run that wedges used to have exactly one failure mode: the kernel
silently hit ``max_wall_seconds`` and the run died with no record of which
replica stalled, in which view, or with what queued.  The
:class:`StallWatchdog` runs *inside* the kernel it is watching: it samples a
progress counter (completed requests) on a short period and, once no
progress has been made for ``stall_after_us``, fires an ``on_stall``
callback **before** the wall-clock cap — while every queue, view number and
connection is still inspectable.

:func:`snapshot_diagnostics` turns that instant into a JSON-serialisable
bundle: kernel heap size, pending asyncio tasks, per-peer TCP connection
state, every replica's :class:`~repro.obsv.health.ReplicaHealth`, the
outstanding work each client is blocked on, and — when tracing is on — the
tail of the trace ring (the causal event record leading up to the stall).  :func:`diagnose_suspect` then
names the replica the evidence points at, and the deployment raises a typed
:class:`~repro.common.errors.StallError` carrying the whole bundle instead
of the old anonymous timeout.
"""

from __future__ import annotations

import json
from functools import partial
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from .health import DeploymentHealth, ReplicaHealth

if TYPE_CHECKING:
    from ..kernel import EventHandle, Kernel


class StallWatchdog:
    """Fires ``on_stall`` after a span of kernel time with zero progress.

    ``progress`` is any monotonically non-decreasing counter (a deployment
    passes ``metrics.completed_count``).  The watchdog checks it every
    ``interval_us`` (default: a quarter of the stall threshold); whenever the
    value advances the deadline resets.  It fires at most once.
    """

    def __init__(self, kernel: "Kernel", progress: Callable[[], int],
                 stall_after_us: float,
                 on_stall: Callable[["StallWatchdog"], None],
                 interval_us: Optional[float] = None) -> None:
        self._kernel = kernel
        self._progress = progress
        self.stall_after_us = stall_after_us
        self._on_stall = on_stall
        self._interval_us = (interval_us if interval_us is not None
                             else max(stall_after_us / 4.0, 1_000.0))
        self._handle: Optional["EventHandle"] = None
        self._last_progress = 0
        self._last_advance_us = 0.0
        self.fired = False

    def arm(self) -> None:
        """Start watching from the kernel's current time."""
        if self._handle is not None or self.fired:
            return
        self._last_progress = self._progress()
        self._last_advance_us = self._kernel.now
        self._handle = self._kernel.schedule(self._interval_us,
                                             partial(self._check))

    def cancel(self) -> None:
        """Stop watching without firing."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    @property
    def stalled_for_us(self) -> float:
        """Kernel time elapsed since progress last advanced."""
        return self._kernel.now - self._last_advance_us

    def _check(self) -> None:
        self._handle = None
        current = self._progress()
        if current > self._last_progress:
            self._last_progress = current
            self._last_advance_us = self._kernel.now
        elif self.stalled_for_us >= self.stall_after_us:
            self.fired = True
            self._on_stall(self)
            return
        self._handle = self._kernel.schedule(self._interval_us,
                                             partial(self._check))


def diagnose_suspect(healths: Sequence[ReplicaHealth]
                     ) -> tuple[Optional[str], str]:
    """Name the replica the health snapshots point at, with a reason.

    Evidence is ranked: a crashed (inactive) replica beats one still
    recovering, which beats the replica furthest behind on execution; with
    everyone level the primary is on the hook, since no progress with a
    healthy quorum means the leader is not driving consensus.
    """
    if not healths:
        return None, "no replicas to inspect"
    inactive = [h for h in healths if not h.active]
    if inactive:
        return inactive[0].name, "replica is crashed (inactive)"
    recovering = [h for h in healths if h.recovering]
    if recovering:
        return recovering[0].name, "replica is still recovering"
    floor = min(h.last_executed for h in healths)
    ceiling = max(h.last_executed for h in healths)
    if ceiling > floor:
        laggard = min(healths, key=lambda h: h.last_executed)
        return (laggard.name,
                f"execution lags the group (seq {laggard.last_executed} "
                f"vs {ceiling})")
    primaries = [h for h in healths if h.is_primary]
    if primaries:
        return (primaries[0].name,
                "no replica is behind; the primary is not driving progress")
    return healths[0].name, "no primary found in the current view"


def _client_state(client) -> dict:
    """What one client is blocked on (duck-typed across client kinds)."""
    state: dict = {"name": client.name}
    if hasattr(client, "outstanding_request"):
        request = client.outstanding_request
        state["outstanding"] = (None if request is None
                                else str(request.request_id))
    if hasattr(client, "outstanding_shards"):
        state["outstanding_shards"] = sorted(client.outstanding_shards)
    return state


def _asyncio_tasks(kernel) -> Optional[list[str]]:
    """Names of pending asyncio tasks when the kernel runs a real loop."""
    loop = getattr(kernel, "loop", None)
    if loop is None:
        return None
    import asyncio

    try:
        tasks = asyncio.all_tasks(loop)
    except RuntimeError:
        return None
    return sorted(task.get_name() for task in tasks if not task.done())


def deployment_health(deployment) -> DeploymentHealth:
    """Snapshot every replica's health plus kernel state for a deployment."""
    kernel = deployment.sim
    return DeploymentHealth(
        kernel_now_us=kernel.now,
        events_processed=kernel.events_processed,
        pending_events=kernel.pending_events,
        completed_requests=deployment.metrics.completed_count,
        replicas=tuple(replica.health() for replica in deployment.replicas),
    )


def snapshot_diagnostics(deployment,
                         reason: str = "stall detected") -> dict:
    """Build the diagnostics bundle for a (possibly wedged) deployment.

    Works on plain and sharded deployments over any backend; fields that a
    backend does not have (asyncio tasks on the simulator, TCP connections
    on the queue transport) are simply absent.
    """
    kernel = deployment.sim
    health = deployment_health(deployment)
    suspect, why = diagnose_suspect(health.replicas)
    bundle = {
        "reason": reason,
        "suspect": suspect,
        "suspect_reason": why,
        "kernel": {
            "now_us": kernel.now,
            "events_processed": kernel.events_processed,
            "pending_events": kernel.pending_events,
            "heap_size": getattr(kernel, "heap_size", None),
        },
        "health": health.as_dict(),
        "aggregate": health.aggregate(),
        "clients": [_client_state(client) for client in deployment.clients],
    }
    tasks = _asyncio_tasks(kernel)
    if tasks is not None:
        bundle["asyncio_tasks"] = tasks
    tracer = getattr(deployment, "tracer", None)
    if tracer is not None:
        # The newest slice of the trace ring: the causal record of what the
        # deployment was doing in the moments before it wedged.
        bundle["trace_tail"] = tracer.tail()
        bundle["trace_counts"] = dict(sorted(tracer.counts.items()))
        bundle["trace_dropped"] = tracer.dropped
    connections = []
    for network in deployment.networks:
        states = getattr(network, "connection_states", None)
        if states is not None:
            connections.append(states())
    if connections:
        bundle["connections"] = connections
    return bundle


def write_diagnostics(bundle: dict, path: str) -> str:
    """Write a diagnostics bundle as indented JSON; returns the path.

    Creates missing parent directories: the bundle is written at the moment
    a run is already failing, which is no time for an ENOENT.
    """
    import os

    parent = os.path.dirname(os.fspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(bundle, handle, indent=2, sort_keys=True, default=str)
        handle.write("\n")
    return path

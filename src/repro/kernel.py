"""Execution-kernel interface shared by every backend.

The protocol stack — replicas, clients, worker pools, trusted devices,
durable stores and the network — never cares *which* clock drives it.  It
needs exactly four things: the current time in microseconds, relative and
absolute scheduling of callbacks, and cancellable handles for the events it
schedules (plus a handle-free variant for events nobody cancels, a way to
end the current run early, and a way to drop everything queued at
teardown).  This module names that contract so
two backends can implement it:

* :class:`~repro.sim.kernel.Simulator` — the deterministic discrete-event
  kernel; time is simulated and a run is a pure function of its seed.
* :class:`~repro.realtime.kernel.AsyncioKernel` — a real asyncio event loop;
  time is wall-clock and signing/MAC work costs what the hardware charges.

Both kernels order simultaneous events by schedule order (FIFO for equal
deadlines), honour :meth:`EventHandle.cancel`, and count executed callbacks
in ``events_processed`` — the backend-conformance test suite pins those
shared semantics down.  Both also run under one garbage-collection policy,
:func:`collection_deferred`, for as long as they drain events.

:class:`Timer` lives here too: it is the one scheduling utility the protocol
layer uses directly, and it only ever touches the :class:`Kernel` surface.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Callable, Iterator, Optional, Protocol, runtime_checkable

from .common.types import Micros

#: net container allocations between two young-generation passes while a
#: kernel drains events (see :func:`collection_deferred`).
RUN_YOUNG_THRESHOLD = 100_000
#: an old-generation threshold no run reaches (the largest C ``int``).
_NEVER = 2**31 - 1


@contextmanager
def collection_deferred() -> Iterator[None]:
    """Keep the cyclic collector's old-generation passes out of a run.

    Both kernels enter this for exactly the span in which they drain
    events.  Draining makes next to no cyclic garbage, yet the
    interpreter's default thresholds rescan the whole resident deployment
    (stores, ledgers, thousands of lanes) every few thousand allocations —
    a tenth to a fifth of a run's host time spent finding nothing.  Inside
    the span the two old generations are never scanned; what stays is one
    young-generation pass per :data:`RUN_YOUNG_THRESHOLD` net container
    allocations.  That pass visits only objects allocated since the
    previous one, so it costs the same however large the deployment is,
    and it is what bounds a long run: cycles made while draining (asyncio
    makes some on every live run; a callback may make its own) are freed
    within one threshold's worth of allocations instead of piling up until
    the run returns.

    The thresholds found on entry are put back on every exit path.  A
    caller who switched collection off (``gc.disable()`` or a zero young
    threshold) keeps it off: the span then changes nothing.  What a run
    leaves for the old generations is freed without them — closed
    deployments and crashed replicas drop their own reference cycles (see
    :meth:`repro.runtime.deployment.Deployment.close`).
    """
    thresholds = gc.get_threshold()
    if not gc.isenabled() or thresholds[0] == 0:
        yield
        return
    gc.set_threshold(RUN_YOUNG_THRESHOLD, _NEVER, _NEVER)
    try:
        yield
    finally:
        gc.set_threshold(*thresholds)


@runtime_checkable
class EventHandle(Protocol):
    """A scheduled callback that can be cancelled before it runs."""

    #: True once the event was cancelled; a cancelled event never fires.
    cancelled: bool

    def cancel(self) -> None:
        """Prevent the callback from running (idempotent)."""


@runtime_checkable
class Kernel(Protocol):
    """The clock-and-scheduler surface every execution backend provides."""

    @property
    def now(self) -> Micros:
        """Current time in microseconds (simulated or wall-clock)."""

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far (cancelled events excluded)."""

    def schedule(self, delay: Micros, callback: Callable[[], None]) -> EventHandle:
        """Run ``callback`` ``delay`` microseconds from now."""

    def schedule_at(self, time: Micros, callback: Callable[[], None]) -> EventHandle:
        """Run ``callback`` at an absolute kernel time."""

    def schedule_call(self, time: Micros, callback: Callable[[], None]) -> None:
        """Run ``callback`` at an absolute kernel time; it is never cancelled.

        Same ordering as :meth:`schedule_at`, no handle returned — kernels
        that can schedule such an event more cheaply do.
        """

    def request_stop(self) -> None:
        """End the current run after the callback in progress.

        Called between runs, it ends the next run after its first callback.
        """

    def cancel_pending(self) -> None:
        """Drop every queued event; teardown only, never during a run."""


class Timer:
    """A restartable one-shot timer bound to a kernel.

    Protocol replicas use timers for request timeouts, batch timeouts and
    view-change timeouts.  ``restart`` cancels any pending expiry and arms the
    timer again, which is the common "reset on progress" pattern.  The timer
    only uses the :class:`Kernel` surface, so the same replica code runs on
    the simulator and on the live asyncio backend.
    """

    __slots__ = ("_sim", "_callback", "_event")

    def __init__(self, sim: Kernel, callback: Callable[[], None]) -> None:
        self._sim = sim
        self._callback = callback
        self._event: Optional[EventHandle] = None

    @property
    def armed(self) -> bool:
        """True while an expiry is pending."""
        return self._event is not None and not self._event.cancelled

    def start(self, delay: Micros) -> None:
        """Arm the timer if it is not already armed."""
        if self.armed or self._callback is None:
            return
        self._event = self._sim.schedule(delay, self._fire)

    def restart(self, delay: Micros) -> None:
        """Cancel any pending expiry and arm the timer afresh."""
        self.cancel()
        if self._callback is not None:
            self._event = self._sim.schedule(delay, self._fire)

    def cancel(self) -> None:
        """Disarm the timer; a no-op if it is not armed."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def close(self) -> None:
        """Disarm the timer for good and let go of its callback.

        The callback is usually a bound method of the object that owns the
        timer, so an open timer and its owner keep each other alive until a
        cyclic collection; a closed one does not.  Arming a closed timer
        does nothing.
        """
        self.cancel()
        self._callback = None

    def _fire(self) -> None:
        self._event = None
        self._callback()

"""Deterministic discrete-event simulation kernel.

The whole reproduction runs on simulated time: replicas, clients, the network
and trusted hardware all schedule callbacks on a single :class:`Simulator`.
The kernel is intentionally small — a binary heap of events ordered by
``(time, sequence)`` — because millions of events are processed per
experiment and predictability matters more than features.

Two runs with the same configuration execute the same events in the same
order; every source of randomness in the library draws from seeded
``random.Random`` streams created by :class:`~repro.sim.rng.RngRegistry`.

:class:`Simulator` is one of two implementations of the
:class:`repro.kernel.Kernel` interface (the other is the live
:class:`~repro.realtime.kernel.AsyncioKernel`).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..common.errors import SimulationError
from ..common.types import Micros
from ..kernel import collection_deferred

__all__ = ["Event", "Simulator"]


@dataclass(order=True, slots=True)
class Event:
    """A single scheduled callback.

    Events compare by ``(time, seq)`` so simultaneous events run in the order
    they were scheduled, which keeps runs deterministic.  Millions are created
    per experiment, hence ``slots=True``.
    """

    time: Micros
    seq: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    #: the simulator whose queue still holds this event; cleared on pop so a
    #: late cancel of an already-run event cannot skew the kernel's
    #: cancelled-entry accounting.
    owner: Optional["Simulator"] = field(default=None, compare=False, repr=False)

    def cancel(self) -> None:
        """Mark the event so the kernel skips it when it is popped."""
        if not self.cancelled:
            self.cancelled = True
            if self.owner is not None:
                self.owner._note_cancelled()


class Simulator:
    """Event loop with a simulated microsecond clock.

    Cancelled events are skipped lazily when popped; when they come to
    dominate the queue (restartable timers churn them out constantly) the
    kernel compacts the heap in one pass instead of paying ``log n`` pushes
    against a queue full of dead entries.
    """

    __slots__ = ("_queue", "_seq", "now", "_events_processed", "_running",
                 "_cancelled_pending", "_stop_pending", "_tracer")

    #: compaction triggers once at least this many cancelled entries make up
    #: the majority of the queue (the floor keeps tiny queues compaction-free).
    _COMPACTION_FLOOR = 64

    def __init__(self) -> None:
        #: heap entries are ``(time, seq, event)`` tuples: heapq then compares
        #: C-level tuples (seq is unique, so the event itself never compares)
        #: instead of calling a Python-level ``Event.__lt__`` per sift step —
        #: heap comparisons are a measurable slice of a deployment run.
        self._queue: list[tuple[Micros, int, Event]] = []
        self._seq = itertools.count()
        #: current simulated time in microseconds.  A plain slot, not a
        #: property: every handler, timer and send reads it, dozens of
        #: times per request.  Only the run loop writes it.
        self.now: Micros = 0.0
        self._events_processed = 0
        self._running = False
        self._cancelled_pending = 0
        self._stop_pending = False
        self._tracer = None

    def set_tracer(self, tracer) -> None:
        """Attach (or detach, with None) a structured-event tracer."""
        self._tracer = tracer

    @property
    def heap_size(self) -> int:
        """Raw heap length, cancelled entries included (diagnostics only)."""
        return len(self._queue)

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far (cancelled events excluded)."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of *live* events still in the queue (cancelled excluded)."""
        return len(self._queue) - self._cancelled_pending

    def _note_cancelled(self) -> None:
        """A queued event was cancelled; compact once dead entries dominate."""
        self._cancelled_pending += 1
        if (self._cancelled_pending >= self._COMPACTION_FLOOR
                and self._cancelled_pending * 2 >= len(self._queue)):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify (heap order is preserved).

        In place (slice assignment), never rebinding ``_queue``: the run
        loop holds a local reference to the list across callbacks.
        """
        self._queue[:] = [entry for entry in self._queue
                          if entry[2].__class__ is not Event
                          or not entry[2].cancelled]
        heapq.heapify(self._queue)
        self._cancelled_pending = 0

    def schedule(self, delay: Micros, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to run ``delay`` microseconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} us in the past")
        return self.schedule_at(self.now + delay, callback)

    def schedule_at(self, time: Micros, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at an absolute simulated time."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} us, clock already at {self.now} us")
        seq = next(self._seq)
        # Positional construction: this runs once per scheduled event and the
        # generated dataclass __init__ parses keywords measurably slower.
        event = Event(time, seq, callback, False, self)
        heapq.heappush(self._queue, (time, seq, event))
        return event

    def schedule_call(self, time: Micros, callback: Callable[[], None]) -> None:
        """Schedule a callback that will never be cancelled — no handle.

        The bare callable goes straight onto the heap where an
        :class:`Event` wrapper would sit; the run loop discriminates on the
        entry's type.  Ordering is identical to :meth:`schedule_at` (same
        ``(time, seq)`` key space), this only skips the per-event wrapper
        allocation.  Network deliveries — the majority of all events in a
        deployment run — take this path.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} us, clock already at {self.now} us")
        heapq.heappush(self._queue, (time, next(self._seq), callback))

    def run(self, until: Optional[Micros] = None,
            max_events: Optional[int] = None,
            stop_when: Optional[Callable[[], bool]] = None) -> Micros:
        """Drain the event queue.

        The loop stops when the queue is empty, when simulated time would pass
        ``until``, after ``max_events`` callbacks, or as soon as ``stop_when``
        returns True or :meth:`request_stop` was called (both checked after
        every callback).  Returns the simulated time at which the loop
        stopped.  The cyclic collector's old-generation passes are deferred
        while the loop runs (:func:`~repro.kernel.collection_deferred`).
        """
        with collection_deferred():
            return self._drain(until, max_events, stop_when)

    def _drain(self, until: Optional[Micros], max_events: Optional[int],
               stop_when: Optional[Callable[[], bool]]) -> Micros:
        if self._running:
            raise SimulationError("simulator is not re-entrant")
        self._running = True
        tracer = self._tracer
        if tracer is not None:
            tracer.record("kernel.run", node="sim")
        budget = max_events if max_events is not None else float("inf")
        # The queue list object is stable for the simulator's lifetime
        # (_compact filters it in place), so the loop can hold locals for
        # the list and heappop instead of re-reading attributes per event.
        queue = self._queue
        heappop = heapq.heappop
        try:
            while queue and budget > 0:
                entry = queue[0]
                event = entry[2]
                if event.__class__ is Event:
                    if event.cancelled:
                        heappop(queue)
                        event.owner = None
                        self._cancelled_pending -= 1
                        continue
                    if until is not None and event.time > until:
                        self.now = until
                        break
                    heappop(queue)
                    event.owner = None
                    self.now = event.time
                    callback = event.callback
                else:
                    # A bare schedule_call callback: never cancellable, its
                    # time lives in the heap key.
                    if until is not None and entry[0] > until:
                        self.now = until
                        break
                    heappop(queue)
                    self.now = entry[0]
                    callback = event
                callback()
                self._events_processed += 1
                budget -= 1
                if self._stop_pending or (stop_when is not None
                                          and stop_when()):
                    break
            else:
                if until is not None and not queue:
                    # Idle until the requested horizon.
                    self.now = max(self.now, until)
        finally:
            self._running = False
            self._stop_pending = False
            tracer = self._tracer
            if tracer is not None:
                tracer.record("kernel.stop", node="sim")
        return self.now

    def request_stop(self) -> None:
        """End the run after the callback in progress.

        The pushed form of ``stop_when``: whoever learns that the run's goal
        is met says so once, instead of the loop asking after every event.
        Called between runs, it ends the next run after its first callback —
        exactly where a ``stop_when`` that already holds would.
        """
        self._stop_pending = True

    def run_until_idle(self, max_events: Optional[int] = None) -> Micros:
        """Run until no events remain; convenience wrapper around :meth:`run`."""
        return self.run(until=None, max_events=max_events)

    def cancel_pending(self) -> None:
        """Drop every queued event (teardown of a deployment that is done).

        The heap is what ties a finished deployment into one reference
        cycle — kernel → callbacks → replicas and clients → kernel — so
        emptying it is what lets reference counting free the deployment.
        """
        for entry in self._queue:
            if entry[2].__class__ is Event:
                entry[2].owner = None
        self._queue.clear()
        self._cancelled_pending = 0

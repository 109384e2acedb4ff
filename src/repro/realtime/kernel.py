"""Real-time execution kernel backed by an asyncio event loop.

:class:`AsyncioKernel` implements the :class:`repro.kernel.Kernel` interface
with wall-clock time: ``now`` is the loop's monotonic clock (converted to
microseconds since the kernel was created) and scheduled callbacks fire on
the real event loop.

The kernel keeps its *own* ``(time, seq)`` heap and arms a single asyncio
timer for the earliest due event instead of creating one
``loop.call_at`` handle per callback.  That buys two things the protocol
stack relies on:

* **Simulator-conformant ordering** — events with equal deadlines run in the
  order they were scheduled.  asyncio's internal heap does not guarantee
  FIFO for equal deadlines; ours does, so the backend-conformance suite can
  hold both kernels to the same semantics.
* **Cheap cancellation and accounting** — ``cancel`` is a flag flip, and
  ``events_processed`` counts executed callbacks exactly like the
  simulator's counter, which keeps the :class:`~repro.runtime.deployment.RunResult`
  ``events`` column meaningful on live runs.  :meth:`~AsyncioKernel.schedule_call`
  queues the bare callable with no :class:`LiveEvent` around it, as
  :meth:`Simulator.schedule_call <repro.sim.kernel.Simulator.schedule_call>`
  does; the drain tells the two apart by the entry's type.

**No oversleeping.**  asyncio's ``EpollSelector`` rounds every timeout up to
a whole millisecond (``epoll_wait`` takes milliseconds), so an idle loop that
arms a timer for an event 120 µs away — one injected network hop — sleeps at
least 1 ms, and a wait of 1.2 ms sleeps 2 ms.  The kernel therefore never
asks the selector to sleep into the last millisecond before its head event:
a head due within :data:`_POLL_WINDOW_US` is *polled* — ``loop.call_soon``
of the drain, so each loop turn checks sockets without blocking and then
looks at the clock again — and a later head arms ``loop.call_at`` for one
window before it is due.  Only that last millisecond of a wait is spun; the
rest is slept.

Nor does the kernel poll for a run's end: :meth:`~AsyncioKernel.run_until`
awaits one future, resolved where the end is decided (a stop, an error, the
wall-clock cap), so a run returns within the loop turn that ended it.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
from typing import Callable, List, Optional, Tuple

from ..common.errors import SimulationError
from ..common.types import Micros
from ..kernel import collection_deferred

#: a head event due within this many microseconds is polled on the next loop
#: turn instead of slept towards: the selector cannot sleep for less than a
#: millisecond, so a shorter sleep is always an oversleep.
_POLL_WINDOW_US = 1_000.0

_INF = float("inf")


class LiveEvent:
    """A callback scheduled on the live kernel; satisfies ``EventHandle``."""

    __slots__ = ("time", "seq", "callback", "cancelled")

    def __init__(self, time: Micros, seq: int,
                 callback: Callable[[], None]) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from running (idempotent)."""
        self.cancelled = True


class AsyncioKernel:
    """Kernel interface over a real asyncio event loop.

    The kernel owns its loop unless one is passed in.  Callbacks may be
    scheduled before the loop runs (deployment build time); they fire once
    the loop is driven by :meth:`run_until` / :meth:`run_until_idle`.
    """

    def __init__(self, loop: Optional[asyncio.AbstractEventLoop] = None) -> None:
        self._owns_loop = loop is None
        self._loop = loop if loop is not None else asyncio.new_event_loop()
        #: the loop's clock, bound once: ``now`` reads it on every call.
        self._clock = self._loop.time
        self._origin = self._clock()
        #: ``(time, seq, entry)``: the entry is a :class:`LiveEvent`, or
        #: the bare callable :meth:`schedule_call` queued.
        self._heap: List[Tuple[Micros, int, object]] = []
        self._seq = itertools.count()
        self._events_processed = 0
        self._wakeup: Optional[asyncio.Handle] = None
        #: what the armed wakeup covers: a push earlier than this re-arms.
        #: ``inf`` when nothing is armed, the head's time while a
        #: ``call_at`` timer is armed for it, and ``-inf`` while a poll is
        #: armed or the drain is running (it re-arms when it ends).
        self._wakeup_time: Micros = _INF
        self._running = False
        self._error: Optional[BaseException] = None
        self._stop_when: Optional[Callable[[], bool]] = None
        #: the run is stopping: due events stay queued for the next run.
        self._stop_requested = False
        #: set by :meth:`request_stop`; read where ``_stop_when`` is asked.
        self._stop_pending = False
        #: resolved when the run in progress is to end; None between runs.
        self._end: Optional[asyncio.Future] = None
        self._tracer = None

    def set_tracer(self, tracer) -> None:
        """Attach (or detach, with None) a structured-event tracer."""
        self._tracer = tracer

    @property
    def heap_size(self) -> int:
        """Raw heap length, cancelled entries included (diagnostics only)."""
        return len(self._heap)

    # -------------------------------------------------------------- kernel
    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        """The asyncio event loop this kernel schedules on."""
        return self._loop

    @property
    def now(self) -> Micros:
        """Wall-clock microseconds since the kernel was created."""
        return (self._clock() - self._origin) * 1_000_000.0

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far (cancelled events excluded)."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Events still queued (cancelled ones excluded)."""
        return sum(1 for _, _, event in self._heap
                   if event.__class__ is not LiveEvent or not event.cancelled)

    def schedule(self, delay: Micros, callback: Callable[[], None]) -> LiveEvent:
        """Schedule ``callback`` to run ``delay`` microseconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} us in the past")
        return self._push(self.now + delay, callback)

    def schedule_at(self, time: Micros, callback: Callable[[], None]) -> LiveEvent:
        """Schedule ``callback`` at an absolute kernel time.

        Unlike the simulator, real time keeps moving between computing a
        deadline and scheduling it, so a slightly-past ``time`` is clamped to
        "as soon as possible" instead of raising.
        """
        return self._push(max(time, self.now), callback)

    def schedule_call(self, time: Micros, callback: Callable[[], None]) -> None:
        """Schedule a callback that will never be cancelled — no handle.

        The bare callable goes straight onto the heap where a
        :class:`LiveEvent` would sit; ordering and the past-time clamp are
        :meth:`schedule_at`'s.
        """
        time = max(time, self.now)
        heapq.heappush(self._heap, (time, next(self._seq), callback))
        if time < self._wakeup_time:
            self._arm()

    def _push(self, time: Micros, callback: Callable[[], None]) -> LiveEvent:
        event = LiveEvent(time, next(self._seq), callback)
        heapq.heappush(self._heap, (time, event.seq, event))
        if time < self._wakeup_time:
            self._arm()
        return event

    # ------------------------------------------------------------ internals
    def _arm(self) -> None:
        """(Re)arm the single loop wakeup for the earliest queued event.

        A head due within :data:`_POLL_WINDOW_US` is polled on the next
        loop turn; a later one gets a ``call_at`` timer one window before
        it is due, since the selector would round a sleep towards the head
        itself up to the next whole millisecond.
        """
        heap = self._heap
        if not heap:
            if self._wakeup is not None:
                self._wakeup.cancel()
                self._wakeup = None
            self._wakeup_time = _INF
            return
        head_time = heap[0][0]
        if head_time >= self._wakeup_time:
            return  # already armed early enough
        if self._wakeup is not None:
            self._wakeup.cancel()
        wake_at = head_time - _POLL_WINDOW_US
        if wake_at <= self.now:
            self._wakeup_time = -_INF
            self._wakeup = self._loop.call_soon(self._run_due)
        else:
            self._wakeup_time = head_time
            self._wakeup = self._loop.call_at(
                self._origin + wake_at / 1_000_000.0, self._run_due)

    def _run_due(self) -> None:
        self._wakeup = None
        if self._stop_requested or self._error is not None:
            # The run is stopping (a stop, or a callback raised): due events
            # stay queued for the next run, as in the simulator's heap, and
            # none runs against a deployment an error left inconsistent.
            self._wakeup_time = _INF
            return
        # Pushes during the drain need not arm: ``finally`` re-arms.
        self._wakeup_time = -_INF
        heap = self._heap
        # The clock is read again only when the head is not due by the last
        # reading: one read per pass, not one per event.
        now = self.now
        try:
            while heap and (heap[0][0] <= now or heap[0][0] <= (now := self.now)):
                event = heapq.heappop(heap)[2]
                if event.__class__ is LiveEvent:
                    if event.cancelled:
                        continue
                    event.callback()
                else:
                    # A bare schedule_call callback: never cancellable.
                    event()
                self._events_processed += 1
                # The stop is checked after every callback, as
                # Simulator.run(stop_when=...) checks after every event.
                if self._stop_pending or (self._stop_when is not None
                                          and self._stop_when()):
                    self._stop_requested = True
                    self._end_run()
                    break
        except BaseException as exc:  # noqa: BLE001 — re-raised by run_until
            # Not lost in asyncio's default handler: run_until re-raises it,
            # as Simulator.run() propagates a callback's exception.
            self.fail(exc)
        finally:
            self._wakeup_time = _INF
            self._arm()

    def _end_run(self) -> None:
        """Resolve the future the run in progress awaits (idempotent)."""
        end = self._end
        if end is not None and not end.done():
            end.set_result(None)

    def fail(self, error: BaseException) -> None:
        """Record a fatal error; it ends the run, which re-raises it."""
        if self._error is None:
            self._error = error
            self._end_run()
            tracer = self._tracer
            if tracer is not None:
                tracer.record("kernel.error", node="live",
                              detail=type(error).__name__)

    # -------------------------------------------------------------- driving
    def run_until(self, stop_when: Optional[Callable[[], bool]] = None,
                  max_wall_seconds: float = 30.0) -> Micros:
        """Drive the loop until ``stop_when`` holds (or the cap); return ``now``.

        The live ``Simulator.run(stop_when=...)``: the condition, like
        :meth:`request_stop`, is checked at the start and after every
        kernel callback, and nowhere else.  So ``stop_when`` must be made
        true by a kernel callback; whatever else decides the end (an
        asyncio task, a protocol callback, an event cancelled outside a
        kernel callback) calls :meth:`request_stop`, or the run goes on to
        the cap.  Old-generation collections wait for the end
        (:func:`~repro.kernel.collection_deferred`).
        """
        if self._running:
            raise SimulationError("kernel is not re-entrant")
        self._running = True
        self._stop_when = stop_when
        self._stop_requested = False
        tracer = self._tracer
        if tracer is not None:
            tracer.record("kernel.run", node="live")
        loop = self._loop
        self._end = loop.create_future()
        cap = loop.call_at(loop.time() + max_wall_seconds, self._end_run)
        if (self._error is not None or self._stop_pending
                or (stop_when is not None and stop_when())):
            self._end_run()  # a due head still runs, as a drain's would
        self._arm()  # re-arm events a previous run's stop left queued
        try:
            with collection_deferred():
                loop.run_until_complete(self._end)
        finally:
            cap.cancel()
            self._end = None
            self._running = False
            self._stop_when = None
            self._stop_pending = False
            tracer = self._tracer
            if tracer is not None:
                tracer.record("kernel.stop", node="live")
        if self._error is not None:
            error, self._error = self._error, None
            raise error
        return self.now

    def request_stop(self) -> None:
        """End the run after the callback in progress (between runs: the next
        run, where a ``stop_when`` that already holds would).  Safe to call
        from any callback on the loop, not only the kernel's."""
        self._stop_pending = True
        self._end_run()

    def run_until_idle(self, max_wall_seconds: float = 30.0) -> Micros:
        """Drive the loop until no live events remain (or the cap)."""
        return self.run_until(lambda: self.pending_events == 0,
                              max_wall_seconds=max_wall_seconds)

    def run_for(self, duration_us: Micros) -> Micros:
        """Drive the loop for a fixed wall-clock duration: the cap ends it."""
        return self.run_until(max_wall_seconds=duration_us / 1_000_000.0)

    def cancel_pending(self) -> None:
        """Cancel every queued event and disarm the wakeup timer.

        Teardown uses this before briefly running the loop again (to await
        cancelled tasks): without it, a backlog of due events left by a
        capped or failed run would execute against the stopped deployment.
        """
        for _, _, event in self._heap:
            if event.__class__ is LiveEvent:
                event.cancel()
        self._heap.clear()
        if self._wakeup is not None:
            self._wakeup.cancel()
            self._wakeup = None
        self._wakeup_time = _INF

    def close(self) -> None:
        """Cancel everything still queued; close the loop only if we own it.

        A loop passed into the constructor belongs to the caller (who may be
        sharing it with other components) and is left running.
        """
        self.cancel_pending()
        if self._owns_loop and not self._loop.is_closed():
            self._loop.close()

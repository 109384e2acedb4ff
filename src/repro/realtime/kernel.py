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
  ``events`` column meaningful on live runs.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
from typing import Callable, List, Optional, Tuple

from ..common.errors import SimulationError
from ..common.types import Micros
from ..kernel import collection_deferred

#: seconds per poll while waiting for a stop condition; coarse enough to stay
#: out of the protocol's way, fine enough that a run ends promptly.
_POLL_SECONDS = 0.002


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
        self._origin = self._loop.time()
        self._heap: List[Tuple[Micros, int, LiveEvent]] = []
        self._seq = itertools.count()
        self._events_processed = 0
        self._wakeup: Optional[asyncio.TimerHandle] = None
        self._wakeup_time: Micros = -1.0
        self._running = False
        self._error: Optional[BaseException] = None
        self._stop_when: Optional[Callable[[], bool]] = None
        self._stop_requested = False
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
        return (self._loop.time() - self._origin) * 1_000_000.0

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far (cancelled events excluded)."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Events still queued (including not-yet-popped cancelled ones)."""
        return sum(1 for _, _, event in self._heap if not event.cancelled)

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
        """:meth:`schedule_at` without a handle (no cheaper path here)."""
        self.schedule_at(time, callback)

    def _push(self, time: Micros, callback: Callable[[], None]) -> LiveEvent:
        event = LiveEvent(time=time, seq=next(self._seq), callback=callback)
        heapq.heappush(self._heap, (event.time, event.seq, event))
        self._arm()
        return event

    # ------------------------------------------------------------ internals
    def _arm(self) -> None:
        """(Re)arm the single asyncio timer for the earliest queued event."""
        if not self._heap:
            if self._wakeup is not None:
                self._wakeup.cancel()
                self._wakeup = None
                self._wakeup_time = -1.0
            return
        head_time = self._heap[0][0]
        if self._wakeup is not None:
            if self._wakeup_time <= head_time:
                return  # already armed early enough
            self._wakeup.cancel()
        self._wakeup_time = head_time
        self._wakeup = self._loop.call_at(
            self._origin + head_time / 1_000_000.0, self._run_due)

    def _run_due(self) -> None:
        self._wakeup = None
        self._wakeup_time = -1.0
        if self._stop_requested or self._error is not None:
            # The run is stopping (condition met, or a callback raised);
            # leave due events queued — the next run re-arms them — exactly
            # like events left in the simulator heap when Simulator.run()
            # stops.  On error this also stops further callbacks from
            # running against a now-inconsistent deployment before the
            # driver's next poll notices.
            return
        try:
            while self._heap and self._heap[0][0] <= self.now:
                _, _, event = heapq.heappop(self._heap)
                if event.cancelled:
                    continue
                event.callback()
                self._events_processed += 1
                # Check the run's stop condition after every callback, like
                # Simulator.run(stop_when=...) does after every event —
                # otherwise a whole batch of due events (e.g. an extra round
                # of client requests) runs past the requested target before
                # the driving coroutine's next poll notices.
                if (self._stop_when is not None and not self._stop_requested
                        and self._stop_when()):
                    self._stop_requested = True
                    break
        except BaseException as exc:  # noqa: BLE001 — re-raised by run_until
            # A callback raised on the event loop, where the exception would
            # otherwise vanish into asyncio's default handler.  Record it so
            # the driving run_until fails loudly — the simulator propagates
            # callback exceptions out of Simulator.run(), and the live
            # backend must not quietly weaken that.
            self.fail(exc)
        finally:
            self._arm()

    def fail(self, error: BaseException) -> None:
        """Record a fatal error; the next :meth:`run_until` poll re-raises it."""
        if self._error is None:
            self._error = error
            tracer = self._tracer
            if tracer is not None:
                tracer.record("kernel.error", node="live",
                              detail=type(error).__name__)

    # -------------------------------------------------------------- driving
    def run_until(self, stop_when: Callable[[], bool],
                  max_wall_seconds: float = 30.0) -> Micros:
        """Drive the loop until ``stop_when`` returns True (or the cap).

        The live analogue of ``Simulator.run(stop_when=...)``: returns the
        kernel time at which the loop stopped.  The cyclic collector's
        old-generation passes are deferred while the loop is driven
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
        self._arm()  # re-arm events a previous run's stop left queued

        async def _drive() -> None:
            deadline = self._loop.time() + max_wall_seconds
            while (self._error is None and not self._stop_requested
                   and not stop_when() and self._loop.time() < deadline):
                await asyncio.sleep(_POLL_SECONDS)

        try:
            with collection_deferred():
                self._loop.run_until_complete(_drive())
        finally:
            self._running = False
            self._stop_when = None
            tracer = self._tracer
            if tracer is not None:
                tracer.record("kernel.stop", node="live")
        if self._error is not None:
            error, self._error = self._error, None
            raise error
        return self.now

    def run_until_idle(self, max_wall_seconds: float = 30.0) -> Micros:
        """Drive the loop until no live events remain (or the cap)."""
        return self.run_until(lambda: self.pending_events == 0,
                              max_wall_seconds=max_wall_seconds)

    def run_for(self, duration_us: Micros) -> Micros:
        """Drive the loop for a fixed wall-clock duration."""
        target = self.now + duration_us
        return self.run_until(lambda: self.now >= target,
                              max_wall_seconds=duration_us / 1_000_000.0 + 1.0)

    def cancel_pending(self) -> None:
        """Cancel every queued event and disarm the wakeup timer.

        Teardown uses this before briefly running the loop again (to await
        cancelled tasks): without it, a backlog of due events left by a
        capped or failed run would execute against the stopped deployment.
        """
        for _, _, event in self._heap:
            event.cancel()
        self._heap.clear()
        if self._wakeup is not None:
            self._wakeup.cancel()
            self._wakeup = None
            self._wakeup_time = -1.0

    def close(self) -> None:
        """Cancel everything still queued; close the loop only if we own it.

        A loop passed into the constructor belongs to the caller (who may be
        sharing it with other components) and is left running.
        """
        self.cancel_pending()
        if self._owns_loop and not self._loop.is_closed():
            self._loop.close()

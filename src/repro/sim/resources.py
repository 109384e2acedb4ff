"""Contended resources: replica worker pools and serial trusted devices.

The paper's throughput arguments hinge on where time is spent: replica worker
threads verifying MACs/signatures (Section 9.4), and the trusted hardware
serialising accesses (Sections 7 and 9.9).  These two resource models make
those costs explicit:

* :class:`WorkerPool` — a fixed number of worker threads; jobs queue FIFO and
  each occupies one worker for its service time.  ResilientDB replicas are
  multi-threaded (Section 9.1), so the default deployment gives each replica
  16 workers; the Figure 5 micro-benchmark pins it to a single worker.
* :class:`SerialDevice` — a single-channel device with a fixed per-operation
  latency; this is the trusted component.  Even a "parallel" protocol cannot
  overlap two accesses to the same enclave counter, which is exactly why high
  access latencies collapse every protocol's throughput in Figure 8.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

from ..common.types import Micros
from ..kernel import Kernel


@dataclass(slots=True)
class ResourceStats:
    """Aggregate utilisation statistics for a resource."""

    jobs_completed: int = 0
    busy_time_us: Micros = 0.0
    total_queue_wait_us: Micros = 0.0

    def utilisation(self, elapsed_us: Micros, channels: int = 1) -> float:
        """Fraction of the elapsed capacity that was busy."""
        if elapsed_us <= 0:
            return 0.0
        return min(1.0, self.busy_time_us / (elapsed_us * channels))

    def mean_queue_wait_us(self) -> Micros:
        """Average time a job spent waiting before starting service."""
        if self.jobs_completed == 0:
            return 0.0
        return self.total_queue_wait_us / self.jobs_completed


class WorkerPool:
    """FIFO pool of identical worker threads.

    ``submit`` enqueues a job; when a worker becomes free the job occupies it
    for ``service_time`` microseconds and then ``on_complete`` runs.  The pool
    is the model of a replica's CPU: message verification and handler compute
    time are charged here.  A queued job is the tuple ``(service_time,
    on_complete, enqueued_at)``; a started one, in its completion batch,
    ``(service_time, on_complete)``.
    """

    __slots__ = ("_sim", "_workers", "_busy", "_queue", "_stats", "name",
                 "_scheduled")

    def __init__(self, sim: Kernel, workers: int, name: str = "workers") -> None:
        if workers <= 0:
            raise ValueError("a worker pool needs at least one worker")
        self._sim = sim
        self._workers = workers
        self._busy = 0
        self._queue: deque[tuple] = deque()
        self._stats = ResourceStats()
        self.name = name
        #: in-flight completion batches keyed by absolute finish time: every
        #: job finishing at the same instant shares one kernel event and one
        #: completion list, not one Event + partial each.
        self._scheduled: dict[Micros, list[tuple]] = {}

    @property
    def workers(self) -> int:
        """Number of worker threads in the pool."""
        return self._workers

    @property
    def busy_workers(self) -> int:
        """Workers currently executing a job."""
        return self._busy

    @property
    def queued_jobs(self) -> int:
        """Jobs waiting for a free worker."""
        return len(self._queue)

    @property
    def stats(self) -> ResourceStats:
        """Utilisation counters for this pool."""
        return self._stats

    def submit(self, service_time: Micros,
               on_complete: Optional[Callable[[], None]] = None) -> None:
        """Enqueue a job taking ``service_time`` microseconds of one worker."""
        self._queue.append((max(0.0, service_time), on_complete,
                            self._sim.now))
        self._dispatch()

    def close(self) -> None:
        """Forget every job not yet completed (its kernel is torn down).

        Jobs hold callbacks into the pool's owner; dropping them is what
        keeps a finished replica from being held in a reference cycle.
        """
        self._queue.clear()
        self._scheduled.clear()

    def _dispatch(self) -> None:
        if not self._queue or self._busy >= self._workers:
            return
        # Replicas charge the same constant costs over and over, so many
        # jobs finish at the same instant (a burst of submits in a handler,
        # or equal-cost queued jobs when workers free up): they share one
        # kernel event and one completion list.
        now = self._sim.now
        stats = self._stats
        scheduled = self._scheduled
        queue = self._queue
        while queue and self._busy < self._workers:
            service_time, on_complete, enqueued_at = queue.popleft()
            self._busy += 1
            stats.total_queue_wait_us += now - enqueued_at
            done_at = now + service_time
            batch = scheduled.get(done_at)
            if batch is not None:
                batch.append((service_time, on_complete))
            else:
                batch = [(service_time, on_complete)]
                scheduled[done_at] = batch
                # partial, not a lambda: a named method the tracers can
                # attribute.  Nothing cancels a batch: no handle needed.
                self._sim.schedule_call(done_at,
                                        partial(self._finish_batch, done_at, batch))

    def _finish_batch(self, done_at: Micros, batch: list[tuple]) -> None:
        # Free every worker and unindex the batch first (a callback may
        # submit follow-up work, which must open a fresh batch), then run
        # the callbacks in submission order.
        del self._scheduled[done_at]
        stats = self._stats
        self._busy -= len(batch)
        stats.jobs_completed += len(batch)
        for service_time, on_complete in batch:
            stats.busy_time_us += service_time
            if on_complete is not None:
                on_complete()
        self._dispatch()


class SerialDevice:
    """Single-channel device with a fixed per-operation latency.

    Used to model trusted hardware: an SGX enclave counter, an SGX persistent
    counter, or a TPM.  Operations queue FIFO; each holds the device for the
    configured latency before its completion callback fires.  ``reserve``
    returns the simulated time at which the operation completes, which callers
    use to delay dependent actions (e.g. sending the Preprepare carrying the
    attestation).
    """

    __slots__ = ("_sim", "_latency", "_available_at", "_stats", "name")

    def __init__(self, sim: Kernel, access_latency_us: Micros,
                 name: str = "trusted-device") -> None:
        if access_latency_us < 0:
            raise ValueError("device latency cannot be negative")
        self._sim = sim
        self._latency = access_latency_us
        self._available_at: Micros = 0.0
        self._stats = ResourceStats()
        self.name = name

    @property
    def access_latency_us(self) -> Micros:
        """Latency of one operation on the device."""
        return self._latency

    @property
    def stats(self) -> ResourceStats:
        """Utilisation counters for this device."""
        return self._stats

    def reserve(self, start_at: Optional[Micros] = None,
                operations: int = 1) -> Micros:
        """Reserve the device for ``operations`` back-to-back accesses.

        ``start_at`` is the earliest simulated time the caller could issue the
        operation (defaults to now).  Returns the completion time.  A zero
        latency device completes immediately, which keeps protocols that never
        touch trusted hardware (Pbft, Zyzzyva) free of artificial delays.
        """
        if operations <= 0:
            return start_at if start_at is not None else self._sim.now
        earliest = self._sim.now if start_at is None else max(start_at, self._sim.now)
        begin = max(earliest, self._available_at)
        self._stats.total_queue_wait_us += (begin - earliest) * operations
        duration = self._latency * operations
        self._available_at = begin + duration
        self._stats.jobs_completed += operations
        self._stats.busy_time_us += duration
        return self._available_at

    def reserve_and_call(self, callback: Callable[[], None],
                         operations: int = 1) -> Micros:
        """Reserve the device and run ``callback`` when the access completes."""
        done_at = self.reserve(operations=operations)
        self._sim.schedule_at(done_at, callback)
        return done_at

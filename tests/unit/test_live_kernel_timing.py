"""The live kernel wakes on time for short waits, sleeps for long ones,
and returns from a run as soon as its stop is requested.

asyncio's ``EpollSelector`` rounds every timeout up to a whole millisecond,
so an idle loop that arms a timer for an event 200 µs away sleeps at least
1 ms.  A live deployment's injected one-way delay is 120 µs, so every hop
taken while the loop is idle would cost a millisecond or more.
:class:`AsyncioKernel` polls a head event that is due within a millisecond
instead of sleeping towards it; these tests hold it to both halves of that:
a chain of short waits finishes close to its modelled length, and a long
wait is still slept, not spun.  A run's end is pushed, not polled: a
callback that requests the stop ends ``run_until`` within the same loop
turn, not at the next tick of a polling coroutine, whether the callback is
the kernel's or a plain asyncio one.
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.realtime.kernel import AsyncioKernel

#: hops in the chain and the wait before each one.
_HOPS = 20
_HOP_US = 200.0
#: runs whose stop latency is measured, and when each requests its stop.
_STOP_RUNS = 20
_STOP_AFTER_US = 500.0


@pytest.fixture
def kernel():
    kernel = AsyncioKernel()
    yield kernel
    kernel.close()


def test_idle_kernel_does_not_oversleep_a_chain_of_short_waits(kernel):
    # Each callback is scheduled 200 µs after the previous one fires, so
    # the loop is idle before every hop.  The model says 4 ms; a loop that
    # rounds each wait up to a millisecond takes 20 ms or more.
    fired = []

    def hop() -> None:
        fired.append(kernel.now)
        if len(fired) < _HOPS:
            kernel.schedule(_HOP_US, hop)

    started = kernel.now
    kernel.schedule(_HOP_US, hop)
    kernel.run_until(lambda: len(fired) == _HOPS, max_wall_seconds=5.0)
    assert len(fired) == _HOPS
    elapsed_ms = (fired[-1] - started) / 1000.0
    assert elapsed_ms >= _HOPS * _HOP_US / 1000.0  # never early
    assert elapsed_ms < 15.0, (
        f"{_HOPS} hops of {_HOP_US:.0f} us took {elapsed_ms:.1f} ms")


def test_schedule_call_fires_in_time_order_with_handled_events(kernel):
    # Bare (handle-free) callbacks share the (time, seq) order with
    # schedule_at events, including an earlier one queued after a later.
    order = []
    now = kernel.now
    kernel.schedule_call(now + 3_000.0, lambda: order.append("call-late"))
    kernel.schedule_at(now + 2_000.0, lambda: order.append("at-mid"))
    kernel.schedule_call(now + 1_000.0, lambda: order.append("call-early"))
    kernel.schedule_call(now + 2_000.0, lambda: order.append("call-mid"))
    cancelled = kernel.schedule_at(now + 1_500.0,
                                   lambda: order.append("cancelled"))
    cancelled.cancel()
    assert kernel.pending_events == 4
    kernel.run_until_idle(max_wall_seconds=5.0)
    assert order == ["call-early", "at-mid", "call-mid", "call-late"]
    assert kernel.events_processed == 4


def test_a_long_wait_is_slept_not_spun(kernel):
    # Only the last millisecond before an event is polled: waiting 60 ms
    # for one event must leave the process mostly idle.
    fired = []
    kernel.schedule(60_000.0, lambda: fired.append(kernel.now))
    cpu0 = time.process_time()
    kernel.run_until(lambda: bool(fired), max_wall_seconds=5.0)
    cpu_s = time.process_time() - cpu0
    assert fired and fired[0] >= 60_000.0
    assert cpu_s < 0.03, f"waiting 60 ms used {cpu_s * 1000:.1f} ms of CPU"


def test_a_requested_stop_ends_the_run_at_once(kernel):
    # On an idle kernel, one callback 500 µs in requests the stop; the
    # run must return well within a millisecond of that call (a driver
    # that polls every 2 ms returns 2 ms late on average).
    lags = []
    for _ in range(_STOP_RUNS):
        requested = []

        def stop() -> None:
            requested.append(time.perf_counter())
            kernel.request_stop()

        kernel.schedule(_STOP_AFTER_US, stop)
        kernel.run_until(max_wall_seconds=5.0)
        returned = time.perf_counter()
        assert requested, "the stop callback never ran"
        lags.append(returned - requested[0])
    median_ms = statistics.median(lags) * 1000.0
    assert median_ms < 1.0, (
        f"run_until returned {median_ms:.2f} ms after request_stop "
        f"(median of {_STOP_RUNS})")


def test_a_stop_requested_outside_the_kernel_ends_the_run(kernel):
    # A plain asyncio callback (as a transport's task or protocol callback
    # would be) requests the stop on a kernel with nothing queued: no kernel
    # callback runs to look at the stop, yet the run must end promptly, not
    # at its 5 s cap.
    requested = []

    def stop() -> None:
        requested.append(time.perf_counter())
        kernel.request_stop()

    kernel.loop.call_later(_STOP_AFTER_US / 1e6, stop)
    kernel.run_until(max_wall_seconds=5.0)
    returned = time.perf_counter()
    assert requested, "the stop callback never ran"
    assert kernel.events_processed == 0
    lag_ms = (returned - requested[0]) * 1000.0
    assert lag_ms < 100.0, f"run_until returned {lag_ms:.1f} ms after the stop"

"""The live kernel wakes on time for short waits and sleeps for long ones.

asyncio's ``EpollSelector`` rounds every timeout up to a whole millisecond,
so an idle loop that arms a timer for an event 200 µs away sleeps at least
1 ms.  A live deployment's injected one-way delay is 120 µs, so every hop
taken while the loop is idle would cost a millisecond or more.
:class:`AsyncioKernel` polls a head event that is due within a millisecond
instead of sleeping towards it; these tests hold it to both halves of that:
a chain of short waits finishes close to its modelled length, and a long
wait is still slept, not spun.
"""

from __future__ import annotations

import time

import pytest

from repro.realtime.kernel import AsyncioKernel

#: hops in the chain and the wait before each one.
_HOPS = 20
_HOP_US = 200.0


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

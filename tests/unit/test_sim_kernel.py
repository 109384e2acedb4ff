"""Unit tests for the discrete-event kernel and timers."""

import pytest

from repro.common.errors import SimulationError
from repro.kernel import Timer
from repro.sim import Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0
    assert sim.events_processed == 0


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(30.0, lambda: order.append("c"))
    sim.schedule(10.0, lambda: order.append("a"))
    sim.schedule(20.0, lambda: order.append("b"))
    sim.run_until_idle()
    assert order == ["a", "b", "c"]
    assert sim.now == 30.0


def test_simultaneous_events_run_in_scheduling_order():
    sim = Simulator()
    order = []
    for tag in range(5):
        sim.schedule(5.0, lambda t=tag: order.append(t))
    sim.run_until_idle()
    assert order == [0, 1, 2, 3, 4]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    sim.run_until_idle()
    with pytest.raises(SimulationError):
        sim.schedule_at(5.0, lambda: None)


def test_cancelled_events_do_not_run():
    sim = Simulator()
    fired = []
    event = sim.schedule(5.0, lambda: fired.append(1))
    event.cancel()
    sim.run_until_idle()
    assert fired == []
    assert sim.events_processed == 0


def test_run_until_horizon_stops_before_future_events():
    sim = Simulator()
    fired = []
    sim.schedule(100.0, lambda: fired.append(1))
    sim.run(until=50.0)
    assert fired == []
    assert sim.now == 50.0
    sim.run(until=200.0)
    assert fired == [1]


def test_run_respects_max_events():
    sim = Simulator()
    count = []
    for _ in range(10):
        sim.schedule(1.0, lambda: count.append(1))
    sim.run(max_events=4)
    assert len(count) == 4


def test_stop_when_predicate_halts_loop():
    sim = Simulator()
    seen = []
    for i in range(10):
        sim.schedule(float(i + 1), lambda i=i: seen.append(i))
    sim.run(stop_when=lambda: len(seen) >= 3)
    assert len(seen) == 3


def test_events_scheduled_during_run_are_processed():
    sim = Simulator()
    results = []

    def first():
        results.append("first")
        sim.schedule(5.0, lambda: results.append("second"))

    sim.schedule(1.0, first)
    sim.run_until_idle()
    assert results == ["first", "second"]
    assert sim.now == 6.0


def test_simulator_not_reentrant():
    sim = Simulator()

    def nested():
        with pytest.raises(SimulationError):
            sim.run_until_idle()

    sim.schedule(1.0, nested)
    sim.run_until_idle()


class TestTimer:
    def test_timer_fires_after_delay(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(25.0)
        sim.run_until_idle()
        assert fired == [25.0]

    def test_start_does_not_rearm_running_timer(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(25.0)
        timer.start(5.0)  # ignored: already armed
        sim.run_until_idle()
        assert fired == [25.0]

    def test_restart_replaces_pending_expiry(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(25.0)
        timer.restart(40.0)
        sim.run_until_idle()
        assert fired == [40.0]

    def test_cancel_prevents_firing(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(25.0)
        timer.cancel()
        sim.run_until_idle()
        assert fired == []
        assert not timer.armed

    def test_timer_can_be_reused_after_firing(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(10.0)
        sim.run_until_idle()
        timer.start(10.0)
        sim.run_until_idle()
        assert fired == [10.0, 20.0]


class TestCancelledEventAccounting:
    def test_pending_events_excludes_cancelled(self):
        sim = Simulator()
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
        assert sim.pending_events == 10
        for event in events[:4]:
            event.cancel()
        assert sim.pending_events == 6

    def test_double_cancel_counts_once(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        event.cancel()
        event.cancel()
        assert sim.pending_events == 1

    def test_cancel_after_run_does_not_skew_count(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(2))
        sim.run(until=5.0)
        assert fired == [1]
        event.cancel()  # already executed; must not affect the live count
        assert sim.pending_events == 1

    def test_compaction_drops_dominating_cancelled_events(self):
        sim = Simulator()
        keep = 10
        churn = 500
        events = [sim.schedule(float(i + 1), lambda: None)
                  for i in range(churn)]
        for i in range(keep):
            sim.schedule(1000.0 + i, lambda: None)
        for event in events:
            event.cancel()
        # Far more cancelled entries than live ones: the heap must have been
        # compacted down to (about) the live set, not retain all 510 entries.
        assert sim.pending_events == keep
        assert len(sim._queue) < churn // 2

    def test_order_and_results_preserved_across_compaction(self):
        sim = Simulator()
        order = []
        cancelled = []
        for i in range(300):
            event = sim.schedule(float(i + 1), lambda i=i: order.append(i))
            if i % 2 == 0:
                cancelled.append(event)
        for event in cancelled:
            event.cancel()
        sim.run_until_idle()
        assert order == [i for i in range(300) if i % 2 == 1]
        assert sim.pending_events == 0

    def test_small_cancelled_sets_are_not_compacted(self):
        sim = Simulator()
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(20)]
        for event in events[:10]:
            event.cancel()
        # Below the compaction floor: entries stay queued (and skipped on pop).
        assert len(sim._queue) == 20
        assert sim.pending_events == 10
        sim.run_until_idle()
        assert sim.events_processed == 10

"""The pushed stop ends a run exactly where the polled predicate did.

``run_until_target`` used to poll ``completed_count >= target`` after every
event; now the metrics sink calls ``kernel.request_stop()`` once, when the
target completes.  Both forms must halt after the same callback: the same
``events_processed`` and, on the simulator, the same ``now`` — including
when the target is already met before the run starts (the run then ends
after its first callback, as a predicate that already holds would), and on
a sharded deployment, whose sink is the global collector of logical
requests.
"""

from __future__ import annotations

import pytest

from repro.common.config import (
    DeploymentConfig,
    ExperimentConfig,
    ProtocolConfig,
    WorkloadConfig,
)
from repro.common.types import ms
from repro.realtime.kernel import AsyncioKernel
from repro.runtime import DeploymentSpec
from repro.runtime.metrics import MetricsCollector
from repro.sim.kernel import Simulator

_CAP_US = 5_000_000.0


def _run_sim(kernel, stop_when=None):
    kernel.run(until=_CAP_US, stop_when=stop_when)


def _run_live(kernel, stop_when=None):
    kernel.run_until(stop_when, max_wall_seconds=10.0)


KERNELS = [(Simulator, _run_sim), (AsyncioKernel, _run_live)]


def _ticks(kernel, seen: list, count: int = 8, stop_after=None) -> None:
    """``count`` callbacks 10 µs apart; the ``stop_after``-th pushes the stop."""
    for index in range(count):
        def tick(index=index):
            seen.append(index)
            if len(seen) == stop_after:
                kernel.request_stop()
        kernel.schedule(10.0 * index, tick)


def _halt(kernel_class, run, mode: str, met_before: bool = False):
    """Where one run stopped: (events processed, callbacks seen, now)."""
    kernel = kernel_class()
    try:
        seen: list = []
        target = 0 if met_before else 3
        if mode == "pushed":
            _ticks(kernel, seen, stop_after=None if met_before else target)
            if met_before:
                kernel.request_stop()
            run(kernel)
        else:
            _ticks(kernel, seen)
            run(kernel, stop_when=lambda: len(seen) >= target)
        return kernel.events_processed, list(seen), kernel.now
    finally:
        if isinstance(kernel, AsyncioKernel):
            kernel.close()


@pytest.mark.parametrize("kernel_class, run", KERNELS,
                         ids=["simulator", "asyncio"])
@pytest.mark.parametrize("met_before", [False, True],
                         ids=["target-reached", "target-met-before-run"])
def test_kernels_halt_where_the_predicate_did(kernel_class, run, met_before):
    pushed = _halt(kernel_class, run, "pushed", met_before)
    polled = _halt(kernel_class, run, "polled", met_before)
    assert pushed[:2] == polled[:2]
    assert pushed[0] == (1 if met_before else 3)
    if kernel_class is Simulator:
        assert pushed[2] == polled[2]  # the live clock is wall time


@pytest.mark.parametrize("kernel_class, run", KERNELS,
                         ids=["simulator", "asyncio"])
def test_a_stop_is_consumed_by_the_run_it_ends(kernel_class, run):
    kernel = kernel_class()
    try:
        seen: list = []
        _ticks(kernel, seen, count=4, stop_after=2)
        run(kernel)
        assert seen == [0, 1]
        kernel.run_until_idle()  # no stop left over: drains the rest
        assert seen == [0, 1, 2, 3]
    finally:
        if isinstance(kernel, AsyncioKernel):
            kernel.close()


def test_the_sink_notifies_once_when_the_target_completes():
    metrics = MetricsCollector()
    calls: list = []
    metrics.notify_at(2, lambda: calls.append(metrics.completed_count))
    for _ in range(4):
        metrics.record_completion("c", None, 0.0, 1.0, 1)
    assert calls == [2]
    metrics.notify_at(1, lambda: calls.append("again"))  # already met
    assert calls == [2, "again"]
    metrics.notify_at(None)
    metrics.record_completion("c", None, 0.0, 1.0, 1)
    assert calls == [2, "again"]


def _config() -> DeploymentConfig:
    return DeploymentConfig(
        protocol="flexi-bft", f=1,
        workload=WorkloadConfig(num_clients=12, records=200),
        protocol_config=ProtocolConfig(
            batch_size=4, worker_threads=4, checkpoint_interval=20,
            request_timeout_us=ms(60.0), view_change_timeout_us=ms(60.0)),
        # The runs take about 10 ms of simulated time; a stop that is never
        # pushed hits this cap (and fails) in seconds, not minutes.
        experiment=ExperimentConfig(warmup_batches=1, measured_batches=8,
                                    max_sim_time_us=1_000_000.0, seed=3))


def _polled_run(deployment, target: int) -> None:
    """What ``run_until_target`` did before the stop was pushed."""
    deployment.start_clients()
    deployment.sim.run(
        until=deployment.experiment.max_sim_time_us,
        stop_when=lambda: deployment.metrics.completed_count >= target)


@pytest.mark.parametrize("shards", [None, 2], ids=["single-group", "sharded"])
def test_run_until_target_halts_where_polling_did(shards):
    target = 60
    spec = DeploymentSpec(_config(), num_shards=shards)
    with spec.build() as pushed, spec.build() as polled:
        result = pushed.run_until_target(target)
        _polled_run(polled, target)
        assert pushed.metrics.completed_count == target
        assert pushed.sim.now < pushed.experiment.max_sim_time_us
        assert (pushed.sim.events_processed, pushed.sim.now) == (
            polled.sim.events_processed, polled.sim.now)
        assert result.consensus_safe
        # The hook is cleared again: a finished run leaves nothing armed.
        sink = pushed.metrics if shards is None else pushed.metrics.global_collector
        assert sink._on_target is None


def test_a_target_met_before_the_run_ends_it_after_one_event():
    spec = DeploymentSpec(_config())
    with spec.build() as pushed, spec.build() as polled:
        pushed.run_until_target(20)
        _polled_run(polled, 20)
        before = pushed.sim.events_processed
        # Pushed: the sink reports at once that 10 <= completed; polled: the
        # predicate already holds.  Either way exactly one more callback.
        pushed.metrics.notify_at(10, pushed.sim.request_stop)
        pushed.sim.run(until=pushed.experiment.max_sim_time_us)
        pushed.metrics.notify_at(None)
        polled.sim.run(until=polled.experiment.max_sim_time_us,
                       stop_when=lambda: polled.metrics.completed_count >= 10)
        assert pushed.sim.events_processed == before + 1
        assert (pushed.sim.events_processed, pushed.sim.now) == (
            polled.sim.events_processed, polled.sim.now)

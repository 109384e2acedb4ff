"""The run-scoped garbage-collection policy, on both kernels.

While a kernel drains events the cyclic collector's old-generation passes
are deferred (:func:`repro.kernel.collection_deferred`); everything a run
leaves behind must therefore be freed by reference counting — closed
deployments and replaced replica incarnations drop their own cycles.  The
kernel-level tests run against both kernels through the backend-conformance
fixture.
"""

from __future__ import annotations

import gc
import weakref

import pytest
from test_backend_conformance import backend  # noqa: F401 — pytest fixture

import repro.kernel
from repro.common.errors import StallError
from repro.protocols.registry import protocol_names
from repro.recovery import FaultSchedule, crash_at, restart_at
from repro.runtime.experiments import ExperimentScale, build_config
from repro.runtime.spec import DeploymentSpec

_SCALE = ExperimentScale(
    name="gc-policy", f=1, num_clients=8, batch_size=2,
    warmup_batches=1, measured_batches=6, worker_threads=4,
    max_sim_seconds=20.0)


def collector_state():
    return gc.isenabled(), gc.get_threshold()


@pytest.fixture
def collector_untouched():
    """The collector state before the test; put back after it."""
    before = collector_state()
    yield before
    enabled, thresholds = before
    (gc.enable if enabled else gc.disable)()
    gc.set_threshold(*thresholds)


def _stall(kernel):
    """End the run the way the stall watchdog does on this kernel."""
    error = StallError("stalled", suspect="replica-0")
    fail = getattr(kernel, "fail", None)
    if fail is None:
        raise error
    fail(error)


class TestCollectorStateAroundARun:
    def test_deferred_inside_and_restored_after_a_run_that_returns(
            self, backend, collector_untouched):
        seen = []
        backend.kernel.schedule(1000.0, lambda: seen.append(collector_state()))
        backend.drain()
        assert seen == [(True, (repro.kernel.RUN_YOUNG_THRESHOLD,
                                2**31 - 1, 2**31 - 1))]
        assert collector_state() == collector_untouched

    def test_restored_after_a_callback_raises(self, backend,
                                              collector_untouched):
        def boom():
            raise RuntimeError("gc policy boom")

        backend.kernel.schedule(1000.0, boom)
        with pytest.raises(RuntimeError, match="gc policy boom"):
            backend.drain()
        assert collector_state() == collector_untouched

    def test_restored_after_a_stall_error(self, backend, collector_untouched):
        kernel = backend.kernel
        kernel.schedule(1000.0, lambda: _stall(kernel))
        with pytest.raises(StallError):
            backend.drain()
        assert collector_state() == collector_untouched

    def test_a_disabled_collector_stays_disabled(self, backend,
                                                 collector_untouched):
        seen = []
        backend.kernel.schedule(1000.0, lambda: seen.append(collector_state()))
        gc.disable()
        backend.drain()
        assert seen == [(False, collector_untouched[1])]
        assert collector_state() == (False, collector_untouched[1])

    def test_a_zero_young_threshold_stays_zero(self, backend,
                                               collector_untouched):
        seen = []
        backend.kernel.schedule(1000.0, lambda: seen.append(gc.get_threshold()))
        gc.set_threshold(0, 10, 10)
        backend.drain()
        assert seen == [(0, 10, 10)]
        assert gc.get_threshold() == (0, 10, 10)


class TestLongRunBound:
    def test_cycles_made_while_draining_do_not_pile_up(
            self, backend, collector_untouched, monkeypatch):
        # A callback that makes nothing but cyclic garbage, far more of it
        # than one young-generation threshold: the run must free it as it
        # goes, not hold all of it until it returns.
        threshold = 5_000
        monkeypatch.setattr(repro.kernel, "RUN_YOUNG_THRESHOLD", threshold)

        class Node:
            alive = 0

            def __init__(self):
                Node.alive += 1
                self.peer = None

            def __del__(self):
                Node.alive -= 1

        kernel = backend.kernel
        rounds, pairs = 40, 500
        peak = []

        def churn(remaining):
            for _ in range(pairs):
                a, b = Node(), Node()
                a.peer, b.peer = b, a
            peak.append(Node.alive)
            if remaining:
                kernel.schedule(200.0, lambda: churn(remaining - 1))

        kernel.schedule(200.0, lambda: churn(rounds - 1))
        backend.drain()
        assert len(peak) == rounds
        made = rounds * pairs * 2
        assert made > 5 * threshold
        assert max(peak) <= 2 * threshold, (max(peak), made)


def _spec(protocol="pbft", backend_name="sim", **kwargs):
    return DeploymentSpec(build_config(protocol, _SCALE),
                          backend=backend_name, **kwargs)


class TestShardedDeploymentEntersOnce:
    @pytest.mark.timeout(60)
    @pytest.mark.parametrize("backend_name", ["sim", "live"])
    def test_one_kernel_one_entry(self, backend_name, monkeypatch):
        import repro.realtime.kernel
        import repro.sim.kernel

        entries = []
        real = repro.kernel.collection_deferred

        def counting():
            entries.append(backend_name)
            return real()

        for module in (repro.sim.kernel, repro.realtime.kernel):
            monkeypatch.setattr(module, "collection_deferred", counting)
        deployment = _spec("flexi-bft", backend_name, num_shards=3).build()
        try:
            result = deployment.run_until_target(target_requests=12)
        finally:
            deployment.close()
        assert result.consensus_safe
        assert len(entries) == 1


class TestClosedDeploymentsAreFreedByRefcount:
    """With the collector off, only reference counting can free anything."""

    @pytest.fixture(autouse=True)
    def _collector_off(self, collector_untouched):
        gc.collect()
        gc.disable()

    @pytest.mark.parametrize("protocol", protocol_names())
    def test_every_protocol_is_acyclic_once_closed(self, protocol):
        deployment = _spec(protocol).build()
        deployment.run_until_target(target_requests=12)
        deployment.close()
        refs = [weakref.ref(obj) for obj in (
            deployment, deployment.network, deployment.replicas[0],
            deployment.clients[0])]
        del deployment
        assert [ref() for ref in refs] == [None] * len(refs)

    def test_sharded_and_open_loop_deployments_too(self):
        from repro.workload.openloop import OpenLoopConfig, run_open_loop

        sharded = _spec("flexi-bft", num_shards=2).build()
        sharded.run_until_target(target_requests=12)
        sharded.close()
        open_loop = OpenLoopConfig(num_users=1_000, arrival_rate_tx_s=2_000.0,
                                   max_in_flight=8, duration_s=0.02)
        lanes = _spec("flexi-bft", open_loop=open_loop).build()
        engine, _ = run_open_loop(lanes, open_loop)
        lanes.close()
        refs = [weakref.ref(obj) for obj in (
            sharded, sharded.groups[0].replicas[0], sharded.clients[0],
            lanes, lanes.clients[0], engine)]
        del sharded, lanes, engine
        assert [ref() for ref in refs] == [None] * len(refs)

    def test_figure_and_attack_functions_leave_no_deployment_behind(
            self, monkeypatch):
        # Functions that build many deployments in a row must close each one
        # before building the next: with the collector off, every deployment
        # they built has to be dead by the time they return.
        from repro.common.config import SGX_ENCLAVE_COUNTER
        from repro.core.claims import rollback_row
        from repro.recovery import FaultPlan
        from repro.runtime.deployment import Deployment
        from repro.runtime.experiments import figure_recovery

        built = []
        init = Deployment.__init__

        def recording_init(self, *args, **kwargs):
            built.append(weakref.ref(self))
            init(self, *args, **kwargs)

        monkeypatch.setattr(Deployment, "__init__", recording_init)
        plan = FaultPlan("crash-restart", crash_s=0.02, restart_s=0.04,
                         end_s=0.1)
        rows = figure_recovery(_SCALE, protocols=("minbft", "flexi-bft"),
                               plan=plan)
        assert len(rows) == 4 and all(row["recovered"] for row in rows)
        row = rollback_row(SGX_ENCLAVE_COUNTER, "minbft", "restart")
        assert row["safety_violated"]
        assert [ref() for ref in built] == [None] * len(built)
        assert len(built) == 5

    def test_a_closed_deployment_stays_readable(self):
        deployment = _spec().build()
        result = deployment.run_until_target(target_requests=12)
        deployment.close()
        assert deployment.collect_result().events == result.events
        assert deployment.replicas[0].health().last_executed > 0
        assert deployment.sim.pending_events == 0
        assert not deployment.clients[0]._timer.armed

    def test_a_replaced_incarnation_is_dead_by_the_end_of_the_run(self):
        schedule = FaultSchedule((crash_at(3, 20_000.0),
                                  restart_at(3, 40_000.0)))
        deployment = _spec(fault_schedule=schedule).build()
        old = weakref.ref(deployment.replica(3))
        deployment.start_clients()
        deployment.run_for(400_000.0)
        assert deployment.replica(3).stats.recoveries_completed == 1
        assert old() is None


class TestSequentialCyclesDoNotGrow:
    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("backend_name", ["sim", "live-tcp"])
    def test_ten_build_run_close_cycles(self, backend_name):
        sizes = []
        for _ in range(10):
            deployment = _spec("flexi-bft", backend_name).build()
            try:
                deployment.run_until_target(target_requests=12)
            finally:
                deployment.close()
            del deployment
            sizes.append(len(gc.get_objects()))
        assert max(sizes[2:]) <= sizes[1] * 1.05, sizes

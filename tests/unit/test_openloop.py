"""Unit and property tests for the open-loop arrival engine.

The engine's O(active-requests) claim, its arrival-process statistics and
its determinism are all asserted here — mostly against lightweight fake
lanes (the engine only needs ``submit`` / ``abandon_pending`` / a
reassignable ``on_complete``), plus a handful of integration tests on a
real deployment, including the million-user bound the roadmap promises.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigurationError, SimulationError
from repro.sim import RngRegistry, Simulator
from repro.workload import OpenLoopConfig, OpenLoopEngine, ZipfianGenerator
from repro.workload.openloop import attach_open_loop, run_open_loop


class FakeLane:
    """The minimal lane surface: submit, abandon, reassignable on_complete."""

    def __init__(self, sim, service_us=1_000.0):
        self.sim = sim
        self.service_us = service_us
        self.on_complete = None
        self.submissions = []  # (submitted_at, operations)
        self.abandoned = []  # reasons
        self._event = None

    def submit(self, operations):
        assert self._event is None, "lane reused while occupied"
        self.submissions.append((self.sim.now, operations))
        self._event = self.sim.schedule(self.service_us, self._complete)

    def _complete(self):
        self._event = None
        if self.on_complete is not None:
            self.on_complete()

    def abandon_pending(self, reason="abandoned"):
        self.abandoned.append(reason)
        if self._event is not None:
            self._event.cancel()
            self._event = None


def build_engine(config, lanes=8, seed=1, service_us=1_000.0, records=32):
    sim = Simulator()
    pool = [FakeLane(sim, service_us) for _ in range(lanes)]
    rng = RngRegistry(seed).stream("openloop")
    engine = OpenLoopEngine(sim, pool, config, rng, records=records)
    return sim, pool, engine


def run_engine(config, **kwargs):
    sim, pool, engine = build_engine(config, **kwargs)
    engine.start()
    sim.run(until=config.total_duration_s * 1_000_000.0)
    engine.stop()
    return sim, pool, engine


def arrival_times(pool):
    """Admitted arrival instants, merged across lanes in time order."""
    times = [at for lane in pool for at, _ in lane.submissions]
    times.sort()
    return times


class TestConfigValidation:
    def test_defaults_validate(self):
        OpenLoopConfig().validate()

    @pytest.mark.parametrize("kwargs", [
        dict(num_users=0),
        dict(arrival_rate_tx_s=0.0),
        dict(process="weibull"),
        dict(user_theta=1.0),
        dict(max_in_flight=0),
        dict(deadline_us=0.0),
        dict(duration_s=0.0),
        dict(segments=((0.0, 1.0),)),
        dict(segments=((0.1, -1.0),)),
        dict(process="bursty", mean_on_s=0.0),
        dict(process="bursty", burst_multiplier=0.0),
        dict(process="bursty", mean_off_s=0.0, burst_multiplier=1.0),
    ])
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            OpenLoopConfig(**kwargs).validate()

    def test_burst_multiplier_beyond_duty_cycle_rejected(self):
        # duty = 0.25, so multipliers above 4 would need a negative
        # off-state rate to preserve the mean.
        config = OpenLoopConfig(process="bursty", burst_multiplier=4.01,
                                mean_on_s=0.05, mean_off_s=0.15)
        with pytest.raises(ConfigurationError):
            config.validate()
        OpenLoopConfig(process="bursty", burst_multiplier=4.0,
                       mean_on_s=0.05, mean_off_s=0.15).validate()


class TestArrivalAccounting:
    def test_offered_splits_into_admitted_and_shed(self):
        config = OpenLoopConfig(arrival_rate_tx_s=20_000.0, duration_s=0.1,
                                max_in_flight=1, deadline_us=None)
        _, pool, engine = run_engine(config, lanes=1, service_us=5_000.0)
        stats = engine.stats
        assert stats.offered == stats.admitted + stats.shed
        assert stats.shed > 0  # one slow lane cannot absorb 20k tx/s
        assert stats.admitted == len(pool[0].submissions)

    def test_deadline_abandons_and_recycles_the_lane(self):
        # Service takes 10x the deadline: every admitted request is
        # abandoned, and the freed lane keeps admitting new arrivals.
        config = OpenLoopConfig(arrival_rate_tx_s=2_000.0, duration_s=0.1,
                                max_in_flight=2, deadline_us=1_000.0)
        _, pool, engine = run_engine(config, lanes=2, service_us=10_000.0)
        stats = engine.stats
        assert stats.abandoned > 2  # lanes were reused after abandonment
        reasons = [reason for lane in pool for reason in lane.abandoned]
        assert set(reasons) == {"deadline"}
        assert stats.completed == 0

    def test_stop_leaves_in_flight_requests_alone(self):
        # "Still in flight at the end" must stay distinct from "abandoned".
        config = OpenLoopConfig(arrival_rate_tx_s=1_000.0, duration_s=0.05,
                                max_in_flight=4, deadline_us=None)
        sim, pool, engine = build_engine(config, lanes=4,
                                         service_us=10_000_000.0)
        engine.start()
        sim.run(until=50_000.0)
        engine.stop()
        assert engine.in_flight() > 0
        assert all(lane.abandoned == [] for lane in pool)
        assert engine.stats.abandoned == 0

    def test_segment_rows_track_the_ramp(self):
        config = OpenLoopConfig(
            arrival_rate_tx_s=4_000.0, max_in_flight=8, deadline_us=None,
            segments=((0.05, 0.0), (0.05, 2.0)))
        _, _, engine = run_engine(config, lanes=8, service_us=500.0)
        rows = engine.stats.segment_rows
        assert [row["segment"] for row in rows] == [0, 1]
        assert rows[0]["offered"] == 0  # multiplier-0 segment is silent
        assert rows[1]["offered"] > 0

    def test_arrivals_cease_after_the_last_segment(self):
        config = OpenLoopConfig(arrival_rate_tx_s=4_000.0, max_in_flight=8,
                                deadline_us=None, segments=((0.05, 1.0),))
        sim, _, engine = build_engine(config, lanes=8, service_us=500.0)
        engine.start()
        sim.run(until=50_000.0)
        offered_at_boundary = engine.stats.offered
        sim.run(until=200_000.0)  # run well past the end: only drain remains
        assert engine.stats.offered == offered_at_boundary
        engine.stop()

    def test_double_start_rejected(self):
        config = OpenLoopConfig(duration_s=0.01)
        _, _, engine = build_engine(config, lanes=1)
        engine.start()
        with pytest.raises(ConfigurationError):
            engine.start()


class TestResidentState:
    def test_peak_resident_is_bounded_by_lane_count(self):
        config = OpenLoopConfig(arrival_rate_tx_s=20_000.0, duration_s=0.1,
                                max_in_flight=8, deadline_us=50_000.0)
        _, _, engine = run_engine(config, lanes=8, service_us=2_000.0)
        assert engine.stats.peak_resident <= 2 * config.max_in_flight + 3

    def test_resident_state_is_independent_of_user_population(self):
        peaks = {}
        for users in (1_000, 1_000_000):
            config = OpenLoopConfig(
                num_users=users, arrival_rate_tx_s=10_000.0, duration_s=0.1,
                max_in_flight=8, deadline_us=50_000.0)
            _, _, engine = run_engine(config, lanes=8, service_us=2_000.0)
            peaks[users] = engine.stats.peak_resident
        assert peaks[1_000] == peaks[1_000_000]
        assert peaks[1_000_000] <= 2 * 8 + 3

    def test_figure_refuses_a_run_past_the_bound(self, monkeypatch):
        # The figure checks the bound itself, with an explicit raise that
        # ``python -O`` cannot strip.
        from repro.runtime import experiments

        def overgrown(deployment, open_loop):
            engine, result = run_open_loop(deployment, open_loop)
            engine.stats.peak_resident = 2 * open_loop.max_in_flight + 4
            return engine, result

        monkeypatch.setattr(experiments, "run_open_loop", overgrown)
        with pytest.raises(SimulationError, match="O\\(active\\) bound"):
            experiments.figure_openloop(experiments.SMALL_SCALE,
                                        _CLI_OPEN_LOOP)


class TestDeterminism:
    def run_row(self, seed, config=None):
        config = config or OpenLoopConfig(
            arrival_rate_tx_s=5_000.0, duration_s=0.1, max_in_flight=4,
            deadline_us=3_000.0)
        _, pool, engine = run_engine(config, lanes=4, seed=seed,
                                     service_us=2_000.0)
        ops = [(at, ops[0].action, ops[0].key)
               for lane in pool for at, ops in lane.submissions]
        return engine.row_columns(config), sorted(ops)

    def test_same_seed_reproduces_rows_and_operations(self):
        assert self.run_row(7) == self.run_row(7)

    def test_different_seed_diverges(self):
        assert self.run_row(7) != self.run_row(8)

    def test_bursty_runs_are_deterministic_too(self):
        config = OpenLoopConfig(
            process="bursty", burst_multiplier=3.0, arrival_rate_tx_s=5_000.0,
            duration_s=0.1, max_in_flight=4, deadline_us=None)
        assert self.run_row(3, config) == self.run_row(3, config)


class TestArrivalProcessProperties:
    """Statistical properties of the arrival processes (hypothesis-driven)."""

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_poisson_interarrival_mean_converges(self, seed):
        rate = 20_000.0
        config = OpenLoopConfig(arrival_rate_tx_s=rate, duration_s=0.2,
                                max_in_flight=64, deadline_us=None)
        _, pool, engine = run_engine(config, lanes=64, seed=seed,
                                     service_us=10.0)
        assert engine.stats.shed == 0  # else gaps are censored
        times = arrival_times(pool)
        assert len(times) > 1_000
        gaps = [b - a for a, b in zip(times, times[1:])]
        mean_gap = sum(gaps) / len(gaps)
        expected = 1_000_000.0 / rate
        assert mean_gap == pytest.approx(expected, rel=0.15)

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_bursty_mean_rate_is_preserved(self, seed):
        # The MMPP's on/off rates are normalised so the long-run mean is
        # the configured rate; over many on/off cycles the arrival count
        # must converge to rate * duration.
        rate, duration = 20_000.0, 1.0
        config = OpenLoopConfig(
            process="bursty", burst_multiplier=3.0, mean_on_s=0.005,
            mean_off_s=0.015, arrival_rate_tx_s=rate, duration_s=duration,
            max_in_flight=128, deadline_us=None)
        _, pool, engine = run_engine(config, lanes=128, seed=seed,
                                     service_us=10.0)
        assert engine.stats.shed == 0
        observed = engine.stats.admitted / duration
        assert observed == pytest.approx(rate, rel=0.35)

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_fixed_registry_seed_is_deterministic(self, seed):
        def issue(registry_seed):
            sim = Simulator()
            pool = [FakeLane(sim, 100.0) for _ in range(16)]
            rng = RngRegistry(registry_seed).stream("openloop")
            config = OpenLoopConfig(arrival_rate_tx_s=10_000.0,
                                    duration_s=0.05, max_in_flight=16,
                                    deadline_us=None)
            engine = OpenLoopEngine(sim, pool, config, rng, records=32)
            engine.start()
            sim.run(until=50_000.0)
            engine.stop()
            return [(at, ops[0].key) for lane in pool
                    for at, ops in lane.submissions]

        assert issue(seed) == issue(seed)

    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_key_draws_match_the_zipf_fold(self, seed):
        # The engine folds Zipf user draws onto the keyspace; its empirical
        # key distribution must match direct ZipfianGenerator sampling
        # (same population/theta/fold) within a small total-variation gap.
        users, records, theta = 1_000, 16, 0.9
        config = OpenLoopConfig(
            num_users=users, user_theta=theta, arrival_rate_tx_s=50_000.0,
            duration_s=0.2, max_in_flight=128, deadline_us=None)
        _, pool, engine = run_engine(config, lanes=128, seed=seed,
                                     service_us=10.0, records=records)
        assert engine.stats.shed == 0
        drawn = [ops[0].key for lane in pool for _, ops in lane.submissions]
        assert len(drawn) > 5_000
        counts = {}
        for key in drawn:
            counts[key] = counts.get(key, 0) + 1

        reference = ZipfianGenerator(
            users, theta, RngRegistry(seed + 1).stream("reference"))
        ref_counts = {}
        for _ in range(len(drawn)):
            key = f"user{reference.next() % records}"
            ref_counts[key] = ref_counts.get(key, 0) + 1

        total = len(drawn)
        keys = set(counts) | set(ref_counts)
        tv_distance = 0.5 * sum(
            abs(counts.get(k, 0) - ref_counts.get(k, 0)) / total for k in keys)
        assert tv_distance < 0.06
        # The fold keeps the head hot: the most popular key must carry
        # visibly more than a uniform share.
        assert max(counts.values()) / total > 1.5 / records


class TestDeploymentIntegration:
    """The engine on real deployments (the acceptance-criteria bound)."""

    def build_spec(self, num_users=1_000_000, max_in_flight=8,
                   rate=6_000.0, duration_s=0.05, sharded=False):
        from repro.runtime.experiments import ExperimentScale, build_config
        from repro.runtime.spec import DeploymentSpec

        scale = ExperimentScale(
            name="openloop-test", f=1, num_clients=max_in_flight,
            batch_size=4, warmup_batches=1, measured_batches=4,
            worker_threads=4, max_sim_seconds=10.0)
        config = build_config("minbft", scale, num_clients=max_in_flight)
        open_loop = OpenLoopConfig(
            num_users=num_users, arrival_rate_tx_s=rate,
            max_in_flight=max_in_flight, deadline_us=25_000.0,
            duration_s=duration_s)
        return DeploymentSpec(
            config, num_shards=2 if sharded else None,
            num_clients=max_in_flight if sharded else None,
            open_loop=open_loop)

    def test_million_users_with_o_active_resident_state(self):
        spec = self.build_spec(num_users=1_000_000, max_in_flight=8)
        deployment = spec.build()
        try:
            engine, result = run_open_loop(deployment, spec.open_loop,
                                           warmup_fraction=0.0)
        finally:
            deployment.close()
        stats = engine.stats
        assert engine.config.num_users == 1_000_000
        assert stats.admitted > 0 and stats.completed > 0
        # The O(active-requests) bound: a free-lane entry or a deadline
        # entry per lane, plus the arrival/flip/boundary events.
        assert stats.peak_resident <= 2 * spec.open_loop.max_in_flight + 3
        row = result.as_row()
        assert row["completed_requests"] == stats.completed

    def test_engine_counters_reconcile_with_the_metrics_sink(self):
        spec = self.build_spec(max_in_flight=4, rate=12_000.0)
        deployment = spec.build()
        try:
            engine, _ = run_open_loop(deployment, spec.open_loop)
            metrics = deployment.metrics
        finally:
            deployment.close()
        stats = engine.stats
        assert metrics.submissions == stats.admitted
        assert metrics.completed_count == stats.completed
        assert metrics.abandoned_count == stats.abandoned
        # Whatever is neither completed nor abandoned is still in flight.
        assert metrics.in_flight() == stats.admitted - stats.completed - stats.abandoned

    def test_sharded_lanes_route_cross_shard(self):
        spec = self.build_spec(max_in_flight=4, rate=4_000.0, sharded=True)
        deployment = spec.build()
        try:
            engine, result = run_open_loop(deployment, spec.open_loop)
        finally:
            deployment.close()
        assert engine.stats.completed > 0
        row = result.as_row()
        assert row["shards"] == 2

    def test_lane_count_mismatch_is_rejected(self):
        spec = self.build_spec(max_in_flight=8)
        deployment = spec.build()
        try:
            with pytest.raises(ConfigurationError):
                attach_open_loop(deployment,
                                 OpenLoopConfig(max_in_flight=16))
        finally:
            deployment.close()

    def test_openloop_scenarios_are_registered(self):
        from repro.perf.scenarios import SCENARIOS

        for name in ("openloop_overload", "openloop_hotspot",
                     "openloop_diurnal"):
            assert name in SCENARIOS


_CLI_OPEN_LOOP = OpenLoopConfig(arrival_rate_tx_s=4_000.0, max_in_flight=8,
                                deadline_us=25_000.0, duration_s=0.05)


@pytest.mark.parametrize("flags, open_loop, num_shards", [
    ((), _CLI_OPEN_LOOP, None),
    (("--sharded",), _CLI_OPEN_LOOP, 2),
    (("--segments", "0.03:0.5,0.03:2.0"),
     replace(_CLI_OPEN_LOOP, segments=((0.03, 0.5), (0.03, 2.0))), None),
], ids=["single-group", "sharded", "segments"])
def test_openloop_cli_prints_the_open_loop_figure_rows(
        flags, open_loop, num_shards, capsys):
    import json

    from repro.__main__ import main
    from repro.runtime.experiments import SMALL_SCALE, figure_openloop

    assert main(["openloop", "--rate", "4000", "--max-in-flight", "8",
                 "--deadline-ms", "25", "--duration", "0.05", *flags,
                 "--report", "json"]) == 0
    printed = json.loads(capsys.readouterr().out)
    rows = figure_openloop(SMALL_SCALE, open_loop, num_shards=num_shards)
    assert printed == json.loads(json.dumps(rows, default=str))
    # A row per rate segment, then the whole-run row with the columns the
    # open-loop scenarios pin.
    assert len(printed) == len(open_loop.segments) + 1
    assert ("hot_shard_share" if num_shards
            else "primary_utilisation") in printed[-1]

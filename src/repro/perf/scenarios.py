"""Named deterministic scenarios.

Each scenario runs experiments of the evaluation through the public
experiment machinery — ``fig1`` the headline head-to-head comparison,
``recovery`` the crash → restart → state-transfer figure, ``protocols`` the
normal case and a view change of every protocol, ``sharding_scaleout``,
``figures`` every other figure on a shrunken sweep, ``claims`` the paper's
Section 5–7 attack outcomes, ``openloop_*`` the open-loop figure at fixed
loads and ``obsv_overhead`` a traced run against an untraced one.

Every scenario is a function ``(PerfScale) -> list[dict]`` returning flat row
dictionaries of *simulated* results only (no wall-clock values), so the rows
can be digested for determinism checking: two runs of the same code must
produce byte-identical row digests, and an optimisation that changes them has
changed simulated behaviour, not just speed.  Per-layer timing lives in
``benchmarks/e2e/probes.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..common.config import (
    ROLLBACK_PROTECTED_COUNTER,
    SGX_ENCLAVE_COUNTER,
    TrustedHardwareSpec,
)
from ..common.types import seconds
from ..core.claims import claims_table
from ..common.jsonhash import json_digest
from ..matrix.cell import Cell
from ..matrix.spec import MatrixSpec
from ..protocols.registry import protocol_names
from ..recovery import FaultPlan, FaultSchedule, crash_at, restart_at
from ..runtime.experiments import (
    ALL_EXPERIMENTS,
    ExperimentScale,
    _run_cells,
    build_config,
    figure_openloop,
    figure_recovery,
    figure_sharding_scaleout,
)
from ..runtime.spec import DeploymentSpec
from ..workload.openloop import OpenLoopConfig


@dataclass(frozen=True)
class PerfScale:
    """Size knobs for one performance-scenario run."""

    name: str
    #: deployment sizing for the figure scenarios.
    experiment: ExperimentScale
    #: shard counts swept by ``sharding_scaleout``.
    shard_counts: tuple[int, ...]
    #: protocols compared head-to-head by ``fig1``.
    fig1_protocols: tuple[str, ...]
    #: protocols crashed and recovered by ``recovery``.
    recovery_protocols: tuple[str, ...]
    #: fault timeline of ``recovery``; it runs a fixed span of simulated
    #: time under full load, so ``recovery_clients × end_s`` sets its cost.
    recovery: FaultPlan
    recovery_clients: int
    #: trusted-hardware persistence levels ``recovery`` sweeps.
    recovery_hardware: tuple[TrustedHardwareSpec, ...]
    #: ``openloop_overload``: offered loads straddling the lane-admission
    #: capacity — below it, just past it, and well past it, where shedding
    #: and deadline abandonment take over and goodput plateaus.
    overload: tuple[OpenLoopConfig, ...]
    #: ``openloop_hotspot``: Zipf-skewed load on the largest shard count.
    hotspot: OpenLoopConfig
    #: ``openloop_diurnal``: a piecewise rate ramp (duration s, multiplier).
    diurnal: OpenLoopConfig


_SMOKE_EXPERIMENT = ExperimentScale(
    name="perf-smoke", f=1, num_clients=40, batch_size=10,
    warmup_batches=2, measured_batches=6, worker_threads=8,
    max_sim_seconds=20.0)

_MEDIUM_EXPERIMENT = ExperimentScale(
    name="perf-medium", f=2, num_clients=240, batch_size=20,
    warmup_batches=3, measured_batches=12, worker_threads=8,
    max_sim_seconds=40.0)

_LARGE_EXPERIMENT = ExperimentScale(
    name="perf-large", f=3, num_clients=480, batch_size=40,
    warmup_batches=4, measured_batches=16, worker_threads=16,
    max_sim_seconds=60.0)

_BOTH_HARDWARE_LEVELS = (SGX_ENCLAVE_COUNTER, ROLLBACK_PROTECTED_COUNTER)

_DIURNAL_SEGMENTS = ((0.08, 0.5), (0.08, 1.5), (0.08, 3.0), (0.08, 1.0))


def _open_loop_points(num_users: int, max_in_flight: int, duration_s: float,
                      rates: tuple[float, ...], hotspot_rate: float,
                      diurnal_rate: float) -> dict:
    """One scale's ``overload``, ``hotspot`` and ``diurnal`` fields."""
    base = OpenLoopConfig(num_users=num_users, max_in_flight=max_in_flight,
                          deadline_us=25_000.0, duration_s=duration_s)
    return {
        "overload": tuple(replace(base, arrival_rate_tx_s=rate)
                          for rate in rates),
        "hotspot": replace(base, arrival_rate_tx_s=hotspot_rate,
                           user_theta=0.999),
        "diurnal": replace(base, arrival_rate_tx_s=diurnal_rate,
                           segments=_DIURNAL_SEGMENTS),
    }


PERF_SCALES: dict[str, PerfScale] = {
    # 32 lanes / ~2.8 ms ≈ 11.4k tx/s of lane-admission capacity at smoke.
    "smoke": PerfScale(
        name="smoke", experiment=_SMOKE_EXPERIMENT,
        shard_counts=(1, 2), fig1_protocols=("minbft", "flexi-bft"),
        recovery_protocols=("minbft", "flexi-bft"),
        recovery=FaultPlan("crash-restart", crash_s=0.2, restart_s=0.35,
                           end_s=0.7),
        recovery_clients=12, recovery_hardware=(SGX_ENCLAVE_COUNTER,),
        **_open_loop_points(1_000_000, 32, 0.25,
                            (2_000.0, 6_000.0, 12_000.0, 24_000.0),
                            hotspot_rate=6_000.0, diurnal_rate=4_000.0)),
    "medium": PerfScale(
        name="medium", experiment=_MEDIUM_EXPERIMENT,
        shard_counts=(1, 2, 4),
        fig1_protocols=("pbft", "minbft", "minzz", "flexi-bft", "flexi-zz"),
        recovery_protocols=("minbft", "flexi-bft"),
        recovery=FaultPlan("crash-restart", crash_s=0.4, restart_s=0.7,
                           end_s=1.3),
        recovery_clients=32, recovery_hardware=_BOTH_HARDWARE_LEVELS,
        **_open_loop_points(2_000_000, 64, 0.4,
                            (4_000.0, 12_000.0, 24_000.0),
                            hotspot_rate=12_000.0, diurnal_rate=8_000.0)),
    "large": PerfScale(
        name="large", experiment=_LARGE_EXPERIMENT,
        shard_counts=(1, 2, 4),
        fig1_protocols=("pbft", "minbft", "minzz", "flexi-bft", "flexi-zz"),
        recovery_protocols=("minbft", "minzz", "flexi-bft", "flexi-zz"),
        recovery=FaultPlan("crash-restart", crash_s=0.8, restart_s=1.4,
                           end_s=2.6),
        recovery_clients=40, recovery_hardware=_BOTH_HARDWARE_LEVELS,
        **_open_loop_points(4_000_000, 96, 0.5,
                            (6_000.0, 18_000.0, 36_000.0),
                            hotspot_rate=18_000.0, diurnal_rate=12_000.0)),
}


# ---------------------------------------------------------------------------
# figure scenarios
# ---------------------------------------------------------------------------
def _without_cell_columns(rows: list[dict]) -> list[dict]:
    """Cell rows minus the ``backend`` and ``cell`` columns they end with."""
    for row in rows:
        del row["backend"], row["cell"]
    return rows


def scenario_fig1(scale: PerfScale) -> list[dict]:
    """Headline comparison: trust-bft protocols vs their FlexiTrust versions."""
    cells = MatrixSpec(name="fig1", protocols=scale.fig1_protocols,
                       scale=scale.experiment).cells()
    return _without_cell_columns(_run_cells(cells))


def scenario_recovery(scale: PerfScale) -> list[dict]:
    """Crash → restart → state transfer for one replica, per protocol."""
    experiment = replace(scale.experiment, num_clients=scale.recovery_clients)
    return _without_cell_columns(figure_recovery(
        experiment, protocols=scale.recovery_protocols,
        hardware_levels=scale.recovery_hardware, plan=scale.recovery))


#: the two protocols every protocol-selecting figure sweeps in ``figures``.
_FIGURE_PROTOCOLS = ("minzz", "flexi-bft")


def scenario_figures(scale: PerfScale) -> list[dict]:
    """Every figure experiment except ``figure_recovery``, on a small sweep.

    Each experiment of ``ALL_EXPERIMENTS`` runs at the scale's sizing with
    two values per swept axis and two protocols per sweep; every row is
    tagged with its figure name.  Every figure here is cell-backed, Figure
    5's seven bars included (a bar is the spec's ``trusted_usage``), so each
    row carries the ``cell`` column and the digest pins the cell hashes as
    well as the results.  ``figure_recovery`` is pinned by ``recovery``.
    """
    experiment = replace(scale.experiment, f_values=(1, 2),
                         client_values=(20, 40), batch_values=(5, 20),
                         regions_max=2, tc_latencies_ms=(0.025, 2.5))
    rows = []
    for name, figure in ALL_EXPERIMENTS.items():
        if name == "figure_recovery":
            continue
        kwargs = {} if name == "figure5" else {"protocols": _FIGURE_PROTOCOLS}
        rows.extend({"figure": name, **row}
                    for row in figure(experiment, **kwargs))
    return rows


def scenario_protocols(scale: PerfScale) -> list[dict]:
    """Every registered protocol: the normal case, then a view change.

    The one scenario that covers all ten names and the view change of every
    trust-bft protocol: per protocol one normal-case cell, and one cell on a
    fixed f = 1 timeline that crashes the view-0 primary at 0.1 s and
    restarts it at 0.7 s (the 250 ms request and 500 ms view-change timeouts
    fit inside the 1 s horizon), whose row carries a fault cell's timeline
    columns: recovery around the crash and where every replica ended up.
    """
    schedule = FaultSchedule((crash_at(0, seconds(0.1)),
                              restart_at(0, seconds(0.7))))
    crash_scale = replace(scale.experiment, f=1, max_sim_seconds=1.0,
                          num_clients=scale.recovery_clients)
    cells = [cell for protocol in protocol_names() for cell in (
        Cell(spec=DeploymentSpec(build_config(protocol, scale.experiment)),
             axes={"timeline": "normal"}),
        Cell(spec=DeploymentSpec(build_config(protocol, crash_scale),
                                 fault_schedule=schedule),
             axes={"timeline": "primary-crash"}))]
    return _without_cell_columns(_run_cells(cells))


def scenario_sharding_scaleout(scale: PerfScale) -> list[dict]:
    """Aggregate throughput as the number of consensus groups grows."""
    return _without_cell_columns(figure_sharding_scaleout(
        scale.experiment, shard_counts=scale.shard_counts))


def scenario_claims(scale: PerfScale) -> list[dict]:
    """The paper's Section 5–7 claims, one row per protocol and attack.

    Independent of the scale: every attack runs at its own fixed size.
    """
    return claims_table()


# ---------------------------------------------------------------------------
# open-loop scenarios (million-user arrival engine)
# ---------------------------------------------------------------------------
def scenario_openloop_overload(scale: PerfScale) -> list[dict]:
    """Open-loop offered load swept past saturation: the goodput/latency knee.

    Each point offers a fixed Poisson arrival rate from a million-user Zipf
    population against a bounded lane pool; rows show goodput, latency,
    admission shedding, deadline abandonment and how hot the primary's
    worker pool ran.  Past the knee goodput plateaus at capacity while
    offered load, shed fraction and tail latency keep climbing — the curve
    a closed loop cannot draw.
    """
    return _without_cell_columns([
        row for open_loop in scale.overload
        for row in figure_openloop(scale.experiment, open_loop)])


def scenario_openloop_hotspot(scale: PerfScale) -> list[dict]:
    """Zipf-skewed open-loop load on a sharded deployment: one shard runs hot.

    The users fold onto a 32-record keyspace, so the Zipf head lands on a
    handful of keys and the router sends their whole mass to the shards that
    own them; ``hot_shard_share`` pins the resulting imbalance.
    """
    return _without_cell_columns(figure_openloop(
        scale.experiment, scale.hotspot, num_shards=max(scale.shard_counts),
        records=32))


def scenario_openloop_diurnal(scale: PerfScale) -> list[dict]:
    """A piecewise diurnal ramp: overload only while the rate peaks.

    One run whose arrival rate steps through the configured multipliers;
    one row per segment (offered/admitted/shed/completed/abandoned deltas)
    plus a whole-run summary row.
    """
    return _without_cell_columns(figure_openloop(scale.experiment,
                                                 scale.diurnal))


# ---------------------------------------------------------------------------
# observability overhead
# ---------------------------------------------------------------------------
def scenario_obsv_overhead(scale: PerfScale) -> list[dict]:
    """Tracing + health collection must observe a run, never change it.

    Runs the same simulated deployment twice — once bare, once with the
    trace ring and health collection enabled — and pins three facts into
    deterministic rows: (1) the traced run's result row, stripped of its
    ``health_`` columns, is byte-identical to the untraced row
    (``rows_match``), so tracing is purely observational; (2) the per-kind
    trace event counts, which are a pure function of simulated behaviour;
    (3) the end-of-run aggregated health columns themselves.  The *wall
    clock* side of the ≤5% overhead claim is asserted by
    ``benchmarks/test_obsv_overhead.py``, which times both paths.

    With request-keyed tracing the summary row additionally pins the span
    reconstruction: how many request lifecycles the trace yields, what
    fraction are complete (client send → reply quorum), and the simulated
    four-phase latency decomposition — all pure functions of the simulated
    run, so they ride the same determinism digests.
    """
    from ..obsv import ObservabilityConfig, analyze_events

    config = build_config("flexi-bft", scale.experiment)
    with DeploymentSpec(config).build() as deployment:
        baseline = deployment.run_until_target()
    base_row = {"mode": "untraced"}
    base_row.update(baseline.as_row())

    observe = ObservabilityConfig(trace=True, collect_health=True)
    with DeploymentSpec(config, observe=observe).build() as deployment:
        traced = deployment.run_until_target()
        tracer = deployment.tracer
        traced_full = traced.as_row()
        traced_row = {"mode": "traced"}
        traced_row.update(traced_full)
        stripped = {key: value for key, value in traced_full.items()
                    if not key.startswith("health_")}
        summary = {
            "mode": "summary",
            "rows_match": stripped == baseline.as_row(),
            "trace_events": tracer.total,
            "trace_retained": len(tracer),
            "trace_dropped": tracer.dropped,
        }
        for kind in sorted(tracer.counts):
            summary[f"count_{kind.replace('.', '_')}"] = tracer.counts[kind]
        summary.update(analyze_events(tracer).as_row())
    return [base_row, traced_row, summary]


#: registry of every named scenario.
SCENARIOS: dict[str, object] = {
    "fig1": scenario_fig1,
    "recovery": scenario_recovery,
    "protocols": scenario_protocols,
    "figures": scenario_figures,
    "sharding_scaleout": scenario_sharding_scaleout,
    "claims": scenario_claims,
    "openloop_overload": scenario_openloop_overload,
    "openloop_hotspot": scenario_openloop_hotspot,
    "openloop_diurnal": scenario_openloop_diurnal,
    "obsv_overhead": scenario_obsv_overhead,
}


def metrics_digest(rows: list[dict]) -> str:
    """Deterministic digest of a scenario's simulated rows.

    The SHA-256 of the rows' sorted-key JSON
    (:func:`~repro.common.jsonhash.json_digest`), so a committed baseline's
    digest is recomputable from its file alone and no wire-format change can
    move it.  Wall-clock values never appear in rows, so this digest is a
    pure function of simulated behaviour: identical before and after a
    legitimate performance optimisation, different whenever simulated
    results changed.
    """
    return json_digest(rows)

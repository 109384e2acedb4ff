"""The four benchmark workloads, built on the stable public surface only.

A workload is a list of *units* — one deployment each — that run back to
back as one repetition.  Every unit is built with ``DeploymentSpec.build()``,
driven through ``run_until_target`` (closed loop) or ``run_open_loop`` (open
loop), checked for correctness, and reduced to a :class:`UnitResult`:
the model row (simulated values that must repeat exactly for one seed), the
host time of the timed call alone, and the counters the per-layer metrics
are computed from.

Sizing (see README.md for the scratch numbers behind it): one repetition
of each workload is about ten seconds of host time on the 2-core reference
box, so ``--seconds 30`` is three repetitions.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro import DeploymentConfig, DeploymentSpec, get_protocol
from repro.common.config import (
    SGX_ENCLAVE_COUNTER,
    ExperimentConfig,
    NetworkConfig,
    ProtocolConfig,
    RecoveryConfig,
    WorkloadConfig,
)
from repro.recovery import FaultSchedule, crash_at, restart_at
from repro.workload.openloop import OpenLoopConfig, run_open_loop

#: share of completions trimmed as warm-up before latency and model
#: throughput are taken (the deployments' own measurement window).
WARMUP = 0.1
#: latency limit and failure limit of ``max_rate_in_limit_tx_s``.
LIMIT_P99_MS = 5.0
LIMIT_FAILED_SHARE = 0.01
#: offered rates of the open-loop sweep; the reference rate is the one whose
#: latency the end-to-end metrics report.
OPENLOOP_RATES = (2_000, 6_000, 9_000, 10_500, 12_000, 24_000)
OPENLOOP_REFERENCE_RATE = 9_000
CLOSED_PROTOCOLS = ("pbft", "minbft", "minzz", "flexi-bft", "flexi-zz")


class CheckFailed(Exception):
    """A correctness check failed; the run exits non-zero without a result."""


@dataclass
class UnitResult:
    """What one deployment run produced."""

    label: str
    protocol: str
    #: simulated values only; byte-identical across repetitions of one seed.
    row: dict
    #: requests the workload offered / the deployment completed / admitted
    #: requests that never completed (abandoned at the deadline, unanswered
    #: after the drain, or short of a closed-loop target).
    offered: int
    completed: int
    failed: int
    host_s: float
    cpu_s: float
    #: latencies (ms) of the measured window, sorted.
    latencies_ms: list
    model_tx_s: float
    counters: dict = field(default_factory=dict)


@dataclass
class Unit:
    """One deployment to build and run."""

    label: str
    protocol: str
    spec: DeploymentSpec
    #: closed loop: requests to complete; open loop: None.
    target: Optional[int] = None
    open_loop: Optional[OpenLoopConfig] = None
    #: extra model values taken from the finished deployment.
    inspect: Optional[Callable] = None
    #: unit-level metadata the workload's summary needs (e.g. offered rate).
    tags: dict = field(default_factory=dict)


@dataclass
class Workload:
    """A named list of deployments; BENCHMARK.json records why it exists."""

    name: str
    backend: str
    #: ``units(seed, scale)``; scale 1.0 is one full repetition, 0.25 the
    #: traced size, and anything below 0.05 the --quick smoke size.
    units: Callable[[int, float], list]
    #: workload-specific per-layer values from one repetition's results.
    extras: Callable[[list], dict] = lambda results: {}
    #: nominal host seconds of one full-size repetition; ``--seconds``
    #: divided by this is the repetition count.
    repetition_seconds: float = 10.0


# ------------------------------------------------------------------ configs
def _config(protocol: str, seed: int, *, f: int, clients: int, batch: int,
            batches: int = 50, recovery: Optional[RecoveryConfig] = None,
            cap_s: float = 600.0) -> DeploymentConfig:
    """One deployment config; ``seed`` feeds every seeded stream."""
    warmup = max(1, round(batches * WARMUP))
    return DeploymentConfig(
        protocol=protocol, f=f, trusted_hardware=SGX_ENCLAVE_COUNTER,
        network=NetworkConfig(seed=seed),
        workload=WorkloadConfig(num_clients=clients, seed=seed),
        protocol_config=ProtocolConfig(batch_size=batch, worker_threads=8),
        experiment=ExperimentConfig(
            warmup_batches=warmup, measured_batches=max(1, batches - warmup),
            max_sim_time_us=cap_s * 1_000_000.0, seed=seed),
        recovery=recovery if recovery is not None else RecoveryConfig())


def _closed_unit(protocol: str, seed: int, backend: str, *, f: int,
                 clients: int, batch: int, batches: int) -> Unit:
    config = _config(protocol, seed, f=f, clients=clients, batch=batch,
                     batches=batches,
                     cap_s=120.0 if backend != "sim" else 600.0)
    return Unit(label=f"{protocol}/closed", protocol=protocol,
                spec=DeploymentSpec(config, backend=backend),
                target=batches * batch)


def _open_loop(rate: float, lanes: int, deadline_ms: float, duration_s: float,
               drain_s: float) -> OpenLoopConfig:
    # The zero-rate tail lets every admitted request finish or hit its
    # deadline, so "unanswered at the end of the run" is never confused
    # with "still in flight".
    return OpenLoopConfig(
        num_users=1_000_000, arrival_rate_tx_s=rate, process="poisson",
        user_theta=0.99, max_in_flight=lanes,
        deadline_us=deadline_ms * 1_000.0,
        segments=((duration_s, 1.0), (drain_s, 0.0)))


# --------------------------------------------------------------- sim_closed
def _sim_closed_units(seed: int, scale: float) -> list:
    # 600 batches = six checkpoints at the default interval of 100.
    batches = max(6, round(600 * scale))
    return [_closed_unit(protocol, seed, "sim", f=2, clients=240, batch=10,
                         batches=batches)
            for protocol in CLOSED_PROTOCOLS]


def _sim_closed_extras(results: list) -> dict:
    by_protocol = {r.protocol: r.model_tx_s for r in results}
    extras = {f"protocols.model_tx_s.{name}": value
              for name, value in by_protocol.items()}
    extras["protocols.flexi_gain"] = (by_protocol["flexi-zz"]
                                      / by_protocol["minzz"])
    return extras


# ------------------------------------------------------------- sim_recovery
_RECOVERY_SPAN_S = 3.0
_RECOVERY_DRAIN_S = 0.1


def _recovery_inspect(primary_crash_us: float, end_us: float, restarts: dict):
    def inspect(deployment) -> dict:
        completed = sorted(record.completed_at
                           for record in deployment.metrics.completions)
        marks = ([primary_crash_us]
                 + [t for t in completed if t >= primary_crash_us] + [end_us])
        unavailable = max(b - a for a, b in zip(marks, marks[1:]))
        catchups = []
        for replica_id, restarted_at in restarts.items():
            replica = deployment.replica(replica_id)
            if replica.stats.recoveries_completed < 1:
                raise CheckFailed(
                    f"replica {replica_id} never finished recovering")
            catchups.append(replica.recovered_at - restarted_at)
        return {"unavailable_ms": unavailable / 1_000.0,
                "catchup_ms": sorted(catchups)[len(catchups) // 2] / 1_000.0}
    return inspect


def _sim_recovery_units(seed: int, scale: float) -> list:
    # Sub-saturation arrivals keep coming through the outage; the lane pool
    # holds everything that arrives while there is no primary and the
    # deadline outlasts the view change, so every request due in the outage
    # is served late and counted with its whole wait — none is shed.
    quick = scale < 0.05
    rate = 100.0 if quick else 3_000.0
    lanes = 96 if quick else 2_048
    # Rate and timeline cannot shrink without changing what is measured
    # (emptier batches, a view change that no longer fits its window), so
    # the reduced sizes run fewer deployments: one seed instead of two.
    seeds = (seed * 1_000 + 1, seed * 1_000 + 2)
    if scale < 1.0:
        seeds = seeds[:1]
    span_us = _RECOVERY_SPAN_S * 1_000_000.0
    units = []
    for unit_seed in seeds:
        for protocol in ("pbft", "flexi-bft"):
            n = get_protocol(protocol).replicas(1)
            backup = n - 1
            schedule = FaultSchedule((
                crash_at(backup, 0.2 * span_us),
                restart_at(backup, 0.4 * span_us),
                crash_at(0, 0.6 * span_us),
                restart_at(0, 0.8 * span_us)))
            config = _config(
                protocol, unit_seed, f=1, clients=lanes, batch=10,
                recovery=RecoveryConfig(fsync_latency_us=20.0,
                                        replay_latency_us=5.0))
            open_loop = _open_loop(rate, lanes, deadline_ms=2_000.0,
                                   duration_s=_RECOVERY_SPAN_S,
                                   drain_s=_RECOVERY_DRAIN_S)
            units.append(Unit(
                label=f"{protocol}/recovery/{unit_seed}", protocol=protocol,
                spec=DeploymentSpec(config, fault_schedule=schedule,
                                    open_loop=open_loop),
                open_loop=open_loop,
                inspect=_recovery_inspect(
                    0.6 * span_us,
                    span_us + _RECOVERY_DRAIN_S * 1_000_000.0,
                    {backup: 0.4 * span_us, 0: 0.8 * span_us})))
    return units


def _sim_recovery_extras(results: list) -> dict:
    def median(key):
        values = sorted(r.row[key] for r in results)
        return values[len(values) // 2]
    return {"recovery.unavailable_ms": median("unavailable_ms"),
            "recovery.catchup_ms": median("catchup_ms")}


# ------------------------------------------------------------- sim_openloop
def _sim_openloop_units(seed: int, scale: float) -> list:
    duration_s = max(0.02, 0.7 * scale)
    units = []
    for rate in OPENLOOP_RATES:
        config = _config("flexi-bft", seed, f=1, clients=32, batch=10)
        open_loop = _open_loop(float(rate), 32, deadline_ms=25.0,
                               duration_s=duration_s, drain_s=0.03)
        units.append(Unit(
            label=f"flexi-bft/open/{rate}", protocol="flexi-bft",
            spec=DeploymentSpec(config, open_loop=open_loop),
            open_loop=open_loop, tags={"rate": rate}))
    return units


def _sim_openloop_extras(results: list) -> dict:
    extras = {}
    in_limit = 0
    for result in results:
        rate = result.counters["rate"]
        p99 = percentile(result.latencies_ms, 0.99)
        failed_share = 1.0 - result.completed / result.offered
        extras[f"workload.latency_p99_ms.r{rate}"] = p99
        if p99 <= LIMIT_P99_MS and failed_share <= LIMIT_FAILED_SHARE:
            in_limit = max(in_limit, rate)
    extras["workload.max_rate_in_limit_tx_s"] = float(in_limit)
    return extras


# ---------------------------------------------------------- live_tcp_closed
def _live_units(seed: int, scale: float) -> list:
    # Wall-clock values are the noisy ones, so the live workload spends its
    # time on more, shorter repetitions: the median of three, not of two.
    batches = max(12, round(400 * scale))
    return [_closed_unit(protocol, seed, "live-tcp", f=1, clients=32,
                         batch=10, batches=batches)
            for protocol in ("minbft", "flexi-bft")]


WORKLOADS = {w.name: w for w in (
    Workload(
        name="sim_closed", backend="sim", units=_sim_closed_units,
        extras=_sim_closed_extras),
    Workload(
        name="sim_recovery", backend="sim", units=_sim_recovery_units,
        extras=_sim_recovery_extras),
    Workload(
        name="sim_openloop", backend="sim", units=_sim_openloop_units,
        extras=_sim_openloop_extras),
    Workload(
        name="live_tcp_closed", backend="live-tcp", units=_live_units,
        repetition_seconds=6.5),
)}


# ------------------------------------------------------------------ running
def percentile(sorted_values: list, fraction: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1,
                int(round(fraction * (len(sorted_values) - 1))))
    return sorted_values[index]


def latency_results(results: list) -> list:
    """The deployments whose latency the workload reports: all of them,
    except on the rate sweep, which reports its reference rate."""
    return [r for r in results
            if r.counters.get("rate") in (None, OPENLOOP_REFERENCE_RATE)]


def latency_ms(results: list, summarise: Callable[[list], float]) -> float:
    """Geometric mean over deployments of one latency statistic."""
    return statistics.geometric_mean(
        [summarise(r.latencies_ms) for r in latency_results(results)])


def model_tx_s(results: list) -> float:
    """Geometric mean of the deployments' model throughput; on the rate
    sweep, the goodput at the highest offered rate."""
    return statistics.geometric_mean(
        [r.model_tx_s for r in results
         if r.counters.get("rate") in (None, OPENLOOP_RATES[-1])])


def run_unit(unit: Unit, runner: Callable = lambda drive: drive()) -> UnitResult:
    """Build, run, check and tear down one deployment.

    Only the driving call is inside the timed region (and inside ``runner``,
    which the traced run uses to open its root span): building is set-up,
    reported as ``setup_s``, and the checks run after the clock stopped.
    """
    deployment = unit.spec.build()
    try:
        if unit.open_loop is not None:
            def drive():
                return run_open_loop(deployment, unit.open_loop, WARMUP)
        else:
            def drive():
                return None, deployment.run_until_target(unit.target)
        wall0, cpu0 = time.perf_counter(), time.process_time()
        engine, result = runner(drive)
        host_s = time.perf_counter() - wall0
        cpu_s = time.process_time() - cpu0
        return _harvest(unit, deployment, result, engine, host_s, cpu_s)
    finally:
        deployment.close()


def _harvest(unit: Unit, deployment, result, engine, host_s: float,
             cpu_s: float) -> UnitResult:
    _check_deployment(unit, deployment, result)
    collector = deployment.metrics
    completed = collector.completed_count
    if engine is not None:
        stats = engine.stats
        offered = stats.offered
        failed = stats.admitted - stats.completed
    else:
        offered = unit.target
        failed = max(0, unit.target - completed)
        if failed:
            raise CheckFailed(
                f"{unit.label}: closed loop reached {completed} of "
                f"{unit.target} requests before the time cap")
    records = sorted(collector.completions, key=lambda r: r.completed_at)
    kept = records[int(len(records) * WARMUP):]
    latencies = sorted(r.latency_us / 1_000.0 for r in kept)
    if unit.open_loop is not None:
        # Goodput over the whole timeline, faults and overload included.
        throughput = completed / unit.open_loop.segments[0][0]
    else:
        throughput = result.metrics.throughput_tx_s
    clock_s = deployment.sim.now / 1_000_000.0

    replicas = deployment.replicas
    primary = deployment.replica(0)
    elapsed_us = max(deployment.sim.now, 1.0)
    pool = primary.workers
    device = primary.trusted_device
    keys = deployment.keystore.stats
    stores = [store for store in deployment.stores if store is not None]
    counters = {
        "events": result.events,
        "messages": result.messages_sent,
        "trusted_accesses": result.trusted_accesses,
        "batches": max(r.stats.batches_executed for r in replicas),
        "checkpoints": max(r.stats.checkpoints_taken for r in replicas),
        "view_changes_started": max(r.stats.view_changes_started
                                    for r in replicas),
        "view_changes_completed": max(r.stats.view_changes_completed
                                      for r in replicas),
        "transfer_batches": sum(r.stats.log_fill_batches_applied
                                for r in replicas),
        "pool_util": pool.stats.utilisation(elapsed_us, pool.workers),
        "pool_queue_wait_us": pool.stats.mean_queue_wait_us(),
        "device_util": (device.stats.utilisation(elapsed_us)
                        if device is not None else 0.0),
        "verify_hits": keys.verify_cache_hits,
        "verify_misses": keys.verify_cache_misses,
        "wal_syncs": sum(store.stats.total_syncs for store in stores),
    }
    counters.update(unit.tags)
    if engine is not None:
        stats = engine.stats
        span_s = unit.open_loop.segments[0][0]
        counters.update(
            due=unit.open_loop.arrival_rate_tx_s * span_s,
            shed=stats.shed, abandoned=stats.abandoned,
            peak_resident=stats.peak_resident)

    row = {"label": unit.label, "completed": completed, "offered": offered,
           "model_tx_s": throughput, "p50_ms": percentile(latencies, 0.5),
           "p99_ms": percentile(latencies, 0.99), "clock_s": clock_s,
           "events": result.events, "messages": result.messages_sent,
           "trusted_accesses": result.trusted_accesses,
           "checkpoints": counters["checkpoints"]}
    if engine is not None:
        row.update(shed=engine.stats.shed, abandoned=engine.stats.abandoned)
    if unit.inspect is not None:
        row.update(unit.inspect(deployment))
    return UnitResult(
        label=unit.label, protocol=unit.protocol, row=row, offered=offered,
        completed=completed, failed=failed, host_s=host_s, cpu_s=cpu_s,
        latencies_ms=latencies, model_tx_s=throughput,
        counters=counters)


def _check_deployment(unit: Unit, deployment, result) -> None:
    """Safety, plus every honest ledger a prefix of the longest one."""
    if not (result.consensus_safe and result.rsm_safe):
        raise CheckFailed(f"{unit.label}: safety monitor reports a violation "
                          f"(consensus_safe={result.consensus_safe}, "
                          f"rsm_safe={result.rsm_safe})")
    honest = deployment.honest_replicas()
    longest = max(honest, key=lambda r: r.ledger.last_executed)
    reference = longest.ledger
    for replica in honest:
        ledger = replica.ledger
        # Checkpoints truncate the ledgers, so the prefix is compared on
        # every sequence number both replicas still retain, and on the
        # state digests of the checkpoints both took.
        for seq, entry in ledger.entries.items():
            other = reference.entries.get(seq)
            if other is not None and other.batch_digest != entry.batch_digest:
                raise CheckFailed(
                    f"{unit.label}: {replica.name} executed a different "
                    f"batch at seq {seq} than {longest.name}")
        for seq, state_digest in ledger.checkpoint_digests.items():
            other = reference.checkpoint_digests.get(seq)
            if other is not None and other != state_digest:
                raise CheckFailed(
                    f"{unit.label}: {replica.name} checkpoint {seq} differs "
                    f"from {longest.name}")
        if (ledger.last_executed == reference.last_executed
                and replica.state_machine.state_digest()
                != longest.state_machine.state_digest()):
            raise CheckFailed(
                f"{unit.label}: {replica.name} and {longest.name} executed "
                f"to seq {ledger.last_executed} but hold different state")


def run_repetition(workload: Workload, seed: int, scale: float) -> list:
    """Run every unit of one repetition, one after another."""
    return [run_unit(unit) for unit in workload.units(seed, scale)]


def model_rows(results: list) -> str:
    """Canonical text of a repetition's model rows (compared byte for byte)."""
    return json.dumps([r.row for r in results], sort_keys=True)

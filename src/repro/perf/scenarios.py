"""Named deterministic scenarios.

Two families share one registry:

* **Figure scenarios** drive full deployments through the public experiment
  machinery: ``fig1`` is the headline head-to-head throughput comparison
  (sequential trusted-counter protocols versus their FlexiTrust
  transformations, with Pbft as the untrusted baseline), ``recovery`` is the
  crash → restart → state-transfer experiment, ``sharding_scaleout`` the
  multi-group scale-out experiment, ``figures`` every other experiment
  of ``ALL_EXPERIMENTS`` on a shrunken sweep, and ``claims`` the paper's
  Section 5–7 attack outcomes (:func:`~repro.core.claims.claims_table`).
* **Microbenchmarks** isolate one substrate layer each — the simulation
  kernel (``kernel``), the message transport (``network``), the
  serialisation/crypto layer (``crypto``) and the binary wire framing
  (``wire_codec``) — so a behaviour change can be attributed before
  bisecting a full deployment run.

Every scenario is a function ``(PerfScale) -> list[dict]`` returning flat row
dictionaries of *simulated* results only (no wall-clock values), so the rows
can be digested for determinism checking: two runs of the same code must
produce byte-identical row digests, and an optimisation that changes them has
changed simulated behaviour, not just speed.  Every point is built and run
the one way everything else is: ``with DeploymentSpec(...).build() as
deployment`` followed by ``run_until_target()`` (or the open-loop driver).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..common.config import SGX_ENCLAVE_COUNTER
from ..common.types import RequestId, seconds
from ..core.claims import claims_table
from ..crypto.digest import combine_digests, digest
from ..crypto.keystore import KeyStore
from ..execution.state_machine import Operation
from ..matrix.spec import MatrixSpec
from ..net.network import Envelope, Network
from ..net.topology import build_topology
from ..protocols.messages import ClientRequest, RequestBatch
from ..protocols.registry import protocol_names
from ..recovery import FaultSchedule, crash_at, restart_at
from ..runtime.experiments import (
    ALL_EXPERIMENTS,
    ExperimentScale,
    _run_cells,
    build_config,
    figure_recovery,
    figure_sharding_scaleout,
)
from ..runtime.spec import DeploymentSpec
from ..sim.kernel import Simulator
from ..sim.rng import RngRegistry
from ..workload.openloop import OpenLoopConfig, open_loop_row, run_open_loop


@dataclass(frozen=True)
class RecoveryParams:
    """Sizing of the ``recovery`` scenario's fault timeline.

    Recovery runs a fixed span of simulated time under full load, so its
    wall-clock cost is dominated by ``num_clients × end_s``; the smoke scale
    shrinks both so the scenario fits a CI gate.
    """

    num_clients: int
    crash_s: float
    restart_s: float
    end_s: float
    #: sweep both trusted-hardware persistence levels (doubles the points).
    both_hardware_levels: bool = True


@dataclass(frozen=True)
class OpenLoopParams:
    """Sizing of the open-loop overload/hotspot/diurnal scenarios.

    ``offered_rates_tx_s`` should straddle the deployment's closed-loop
    capacity so the overload sweep shows the whole goodput/latency knee:
    below saturation, near it, and well past it (where admission shedding
    and deadline abandonment take over).
    """

    #: logical user population (engine state stays O(max_in_flight)).
    num_users: int = 1_000_000
    #: request lanes (= admission limit = clients the deployment builds).
    max_in_flight: int = 32
    #: offered-load sweep of ``openloop_overload``: below the lane-admission
    #: capacity (32 lanes / ~2.8 ms ≈ 11.4k tx/s at smoke), just past it,
    #: and 2× past it, where shedding dominates and goodput plateaus.
    offered_rates_tx_s: tuple[float, ...] = (2_000.0, 6_000.0,
                                             12_000.0, 24_000.0)
    #: run length per point.
    duration_s: float = 0.25
    #: per-request deadline (milliseconds).
    deadline_ms: float = 25.0
    #: keyspace size of the hotspot scenario: small enough that the Zipf
    #: head concentrates on a handful of keys owned by one shard.
    hotspot_records: int = 32
    #: offered load of the hotspot scenario.
    hotspot_rate_tx_s: float = 6_000.0
    #: piecewise rate ramp of the diurnal scenario (duration s, multiplier).
    diurnal_segments: tuple[tuple[float, float], ...] = (
        (0.08, 0.5), (0.08, 1.5), (0.08, 3.0), (0.08, 1.0))
    #: base rate the diurnal multipliers scale.
    diurnal_rate_tx_s: float = 4_000.0


@dataclass(frozen=True)
class PerfScale:
    """Size knobs for one performance-scenario run."""

    name: str
    #: deployment sizing for the figure scenarios.
    experiment: ExperimentScale
    #: operation count for the substrate microbenchmarks.
    micro_ops: int
    #: shard counts swept by ``sharding_scaleout``.
    shard_counts: tuple[int, ...]
    #: protocols compared head-to-head by ``fig1``.
    fig1_protocols: tuple[str, ...]
    #: protocols crashed and recovered by ``recovery``.
    recovery_protocols: tuple[str, ...]
    #: fault-timeline sizing of the ``recovery`` scenario.
    recovery: RecoveryParams
    #: sizing of the open-loop scenarios (million-user arrival engine).
    open_loop: OpenLoopParams = OpenLoopParams()


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

PERF_SCALES: dict[str, PerfScale] = {
    "smoke": PerfScale(
        name="smoke", experiment=_SMOKE_EXPERIMENT, micro_ops=20_000,
        shard_counts=(1, 2), fig1_protocols=("minbft", "flexi-bft"),
        recovery_protocols=("minbft", "flexi-bft"),
        recovery=RecoveryParams(num_clients=12, crash_s=0.2, restart_s=0.35,
                                end_s=0.7, both_hardware_levels=False)),
    "medium": PerfScale(
        name="medium", experiment=_MEDIUM_EXPERIMENT, micro_ops=100_000,
        shard_counts=(1, 2, 4),
        fig1_protocols=("pbft", "minbft", "minzz", "flexi-bft", "flexi-zz"),
        recovery_protocols=("minbft", "flexi-bft"),
        recovery=RecoveryParams(num_clients=32, crash_s=0.4, restart_s=0.7,
                                end_s=1.3),
        open_loop=OpenLoopParams(
            num_users=2_000_000, max_in_flight=64,
            offered_rates_tx_s=(4_000.0, 12_000.0, 24_000.0),
            duration_s=0.4, hotspot_rate_tx_s=12_000.0,
            diurnal_rate_tx_s=8_000.0)),
    "large": PerfScale(
        name="large", experiment=_LARGE_EXPERIMENT, micro_ops=200_000,
        shard_counts=(1, 2, 4),
        fig1_protocols=("pbft", "minbft", "minzz", "flexi-bft", "flexi-zz"),
        recovery_protocols=("minbft", "minzz", "flexi-bft", "flexi-zz"),
        recovery=RecoveryParams(num_clients=40, crash_s=0.8, restart_s=1.4,
                                end_s=2.6),
        open_loop=OpenLoopParams(
            num_users=4_000_000, max_in_flight=96,
            offered_rates_tx_s=(6_000.0, 18_000.0, 36_000.0),
            duration_s=0.5, hotspot_rate_tx_s=18_000.0,
            diurnal_rate_tx_s=12_000.0)),
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
    params = scale.recovery
    experiment = replace(scale.experiment, num_clients=params.num_clients)
    hardware_levels = None if params.both_hardware_levels else (
        SGX_ENCLAVE_COUNTER,)
    return figure_recovery(
        experiment, protocols=scale.recovery_protocols,
        hardware_levels=hardware_levels,
        crash_s=params.crash_s, restart_s=params.restart_s,
        end_s=params.end_s)


#: the two protocols every protocol-selecting figure sweeps in ``figures``.
_FIGURE_PROTOCOLS = ("minzz", "flexi-bft")


def scenario_figures(scale: PerfScale) -> list[dict]:
    """Every figure experiment except ``figure_recovery``, on a small sweep.

    Each experiment of ``ALL_EXPERIMENTS`` runs at the scale's sizing with
    two values per swept axis and two protocols per sweep; every row is
    tagged with its figure name.  Rows of the cell-backed figures carry the
    ``cell`` column, so the digest pins the figures' cell hashes as well as
    their results.  ``figure_recovery`` is pinned by ``recovery``.
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
    trust-bft protocol: per protocol one normal-case row, and one row from a
    fixed f = 1 timeline that crashes the view-0 primary at 0.1 s and
    restarts it at 0.7 s (the 250 ms request and 500 ms view-change timeouts
    fit inside the 1 s run), which also pins where every replica ended up.
    """
    schedule = FaultSchedule((crash_at(0, seconds(0.1)),
                              restart_at(0, seconds(0.7))))
    rows = []
    for protocol in protocol_names():
        config = build_config(protocol, scale.experiment)
        with DeploymentSpec(config).build() as deployment:
            result = deployment.run_until_target()
        rows.append({"protocol": protocol, "timeline": "normal",
                     **result.as_row()})
        config = build_config(protocol, scale.experiment, f=1,
                              num_clients=scale.recovery.num_clients)
        with DeploymentSpec(config,
                            fault_schedule=schedule).build() as deployment:
            deployment.start_clients()
            row = {"protocol": protocol, "timeline": "primary-crash",
                   **deployment.run_for(seconds(1.0)).as_row()}
            for replica in deployment.replicas:
                row[f"r{replica.replica_id}_view"] = replica.view
                row[f"r{replica.replica_id}_last_executed"] = (
                    replica.ledger.last_executed)
                row[f"r{replica.replica_id}_trusted_accesses"] = (
                    replica.trusted.stats.total if replica.trusted else 0)
        rows.append(row)
    return rows


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
#: protocol the open-loop scenarios overload (the headline FlexiTrust one).
_OPENLOOP_PROTOCOL = "flexi-bft"


def _openloop_spec(scale: PerfScale, open_loop, *, num_shards=None,
                   records=None) -> DeploymentSpec:
    """A deployment spec sized for one open-loop point."""
    config = build_config(_OPENLOOP_PROTOCOL, scale.experiment,
                          num_clients=open_loop.max_in_flight)
    if records is not None:
        config = config.with_updates(
            workload=replace(config.workload, records=records))
    num_clients = open_loop.max_in_flight if num_shards is not None else None
    return DeploymentSpec(config, num_shards=num_shards,
                          num_clients=num_clients, open_loop=open_loop)


def _primary_utilisation(deployment) -> float:
    """Worker-pool utilisation of the view-0 primary over the whole run."""
    elapsed = deployment.sim.now
    if elapsed <= 0:
        return 0.0
    workers = deployment.primary.workers
    return workers.stats.utilisation(
        elapsed, deployment.protocol_config.worker_threads)


def scenario_openloop_overload(scale: PerfScale) -> list[dict]:
    """Open-loop offered load swept past saturation: the goodput/latency knee.

    Each point offers a fixed Poisson arrival rate from a million-user Zipf
    population against a bounded lane pool; rows show goodput, latency,
    admission shedding, deadline abandonment and how hot the primary's
    worker pool ran.  Past the knee goodput plateaus at capacity while
    offered load, shed fraction and tail latency keep climbing — the curve
    a closed loop cannot draw.
    """
    params = scale.open_loop
    rows = []
    for rate in params.offered_rates_tx_s:
        open_loop = OpenLoopConfig(
            num_users=params.num_users, arrival_rate_tx_s=rate,
            max_in_flight=params.max_in_flight,
            deadline_us=params.deadline_ms * 1_000.0,
            duration_s=params.duration_s)
        with _openloop_spec(scale, open_loop).build() as deployment:
            engine, result = run_open_loop(deployment, open_loop)
            # The million-user contract, enforced on every checked run: engine
            # state is O(active requests) — free-lane stack + armed deadlines
            # + the arrival/flip/boundary events — never O(num_users).
            assert (engine.stats.peak_resident
                    <= 2 * open_loop.max_in_flight + 3), (
                f"open-loop resident state {engine.stats.peak_resident} "
                f"exceeds the O(active) bound for "
                f"{open_loop.max_in_flight} lanes")
            row = {"protocol": _OPENLOOP_PROTOCOL}
            row.update(open_loop_row(engine, result))
            row["primary_utilisation"] = round(
                _primary_utilisation(deployment), 4)
        rows.append(row)
    return rows


def scenario_openloop_hotspot(scale: PerfScale) -> list[dict]:
    """Zipf-skewed open-loop load on a sharded deployment: one shard runs hot.

    The user population is folded onto a deliberately small keyspace, so
    the Zipf head lands on a handful of keys — and the router sends their
    whole mass to the shards that own them.  The row pins the resulting
    imbalance (``hot_shard_share``) alongside the usual open-loop columns.
    """
    params = scale.open_loop
    num_shards = max(scale.shard_counts)
    open_loop = OpenLoopConfig(
        num_users=params.num_users,
        arrival_rate_tx_s=params.hotspot_rate_tx_s,
        user_theta=0.999, max_in_flight=params.max_in_flight,
        deadline_us=params.deadline_ms * 1_000.0,
        duration_s=params.duration_s)
    spec = _openloop_spec(scale, open_loop, num_shards=num_shards,
                          records=params.hotspot_records)
    with spec.build() as deployment:
        engine, result = run_open_loop(deployment, open_loop)
        row = {"protocol": _OPENLOOP_PROTOCOL, "shards": num_shards}
        row.update(open_loop_row(engine, result))
        completed = result.per_shard_completed
        total = max(1, sum(completed.values()))
        row["hot_shard_share"] = round(max(completed.values()) / total, 4)
        for shard in sorted(completed):
            row[f"shard{shard}_completed"] = completed[shard]
    return [row]


def scenario_openloop_diurnal(scale: PerfScale) -> list[dict]:
    """A piecewise diurnal ramp: overload only while the rate peaks.

    One run whose arrival rate steps through the configured multipliers;
    one row per segment (offered/admitted/shed/completed/abandoned deltas)
    plus a whole-run summary row.
    """
    params = scale.open_loop
    open_loop = OpenLoopConfig(
        num_users=params.num_users,
        arrival_rate_tx_s=params.diurnal_rate_tx_s,
        max_in_flight=params.max_in_flight,
        deadline_us=params.deadline_ms * 1_000.0,
        segments=params.diurnal_segments)
    with _openloop_spec(scale, open_loop).build() as deployment:
        engine, result = run_open_loop(deployment, open_loop)
        rows = [dict(segment_row) for segment_row in engine.stats.segment_rows]
        summary = {"protocol": _OPENLOOP_PROTOCOL, "segment": "all"}
        summary.update(open_loop_row(engine, result))
        summary["primary_utilisation"] = round(
            _primary_utilisation(deployment), 4)
        rows.append(summary)
    return rows


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

    With causal tracing the summary row additionally pins the span
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


# ---------------------------------------------------------------------------
# substrate microbenchmarks
# ---------------------------------------------------------------------------
def scenario_kernel(scale: PerfScale) -> list[dict]:
    """Simulation-kernel microbenchmark: schedule, cancel, chain, drain."""
    sim = Simulator()
    fired = 0

    def tick() -> None:
        nonlocal fired
        fired += 1

    # Phase 1: bulk schedule with a third of the events cancelled before the
    # run — the pattern replica timers produce, and what heap compaction is
    # for.
    events = [sim.schedule(float(i % 97) + 1.0, tick)
              for i in range(scale.micro_ops)]
    for index, event in enumerate(events):
        if index % 3 == 0:
            event.cancel()
    pending_after_cancel = sim.pending_events
    sim.run_until_idle()

    # Phase 2: a sequential chain, each callback scheduling the next —
    # the pure per-event overhead of the loop.
    remaining = scale.micro_ops

    def chain() -> None:
        nonlocal remaining, fired
        fired += 1
        remaining -= 1
        if remaining > 0:
            sim.schedule(1.0, chain)

    sim.schedule(1.0, chain)
    sim.run_until_idle()

    return [{
        "scheduled": 2 * scale.micro_ops,
        "fired": fired,
        "pending_after_cancel": pending_after_cancel,
        "events": sim.events_processed,
        "sim_time_us": sim.now,
    }]


class _Sink:
    """Network node that counts deliveries."""

    __slots__ = ("name", "received")

    def __init__(self, name: str) -> None:
        self.name = name
        self.received = 0

    def receive(self, envelope: Envelope) -> None:
        self.received += 1


def scenario_network(scale: PerfScale) -> list[dict]:
    """Transport microbenchmark: point-to-point sends through the topology."""
    sim = Simulator()
    names = [f"perf-node-{i}" for i in range(4)]
    topology = build_topology(names, [], ("san-jose",), 120.0)
    network = Network(sim, topology, RngRegistry(7))
    sinks = [_Sink(name) for name in names]
    for sink in sinks:
        network.register(sink)
    for i in range(scale.micro_ops):
        source = names[i % 4]
        destination = names[(i + 1 + i % 3) % 4]
        network.send(source, destination, i)
    sim.run_until_idle()
    return [{
        "messages_sent": network.stats.messages_sent,
        "messages_delivered": network.stats.messages_delivered,
        "received": sum(sink.received for sink in sinks),
        "events": sim.events_processed,
        "sim_time_us": round(sim.now, 3),
    }]


def scenario_crypto(scale: PerfScale) -> list[dict]:
    """Serialisation/crypto microbenchmark: digest, sign, verify, re-verify.

    Mirrors the per-message life cycle inside a deployment: a request is
    digested when batched, re-digested when the batch is hashed, signed once,
    then verified by every receiving replica — so repeated digests and
    verifies of the *same* object dominate, which is exactly what the
    memoisation layer exists to make cheap.
    """
    keystore = KeyStore(seed=7)
    key = keystore.register("perf-signer")
    iterations = max(1, scale.micro_ops // 20)
    rolling = b"\x00" * 32
    signs = verifies = digests = 0
    for i in range(iterations):
        request = ClientRequest(
            request_id=RequestId(client="perf-client", number=i),
            operations=(Operation(action="write", key=f"user{i % 997}",
                                  value=f"value-{i}"),))
        batch = RequestBatch(requests=(request,) * 4)
        for _ in range(3):  # sign -> verify -> re-verify re-digest pattern
            rolling = combine_digests(rolling, batch.digest(),
                                      request.payload_digest())
            digests += 2
        signature = key.sign(request.signed_part())
        signs += 1
        for _ in range(2):
            keystore.verify(request.signed_part(), signature)
            verifies += 1
    rolling = combine_digests(rolling, digest({"iterations": iterations}))
    return [{
        "iterations": iterations,
        "digests": digests,
        "signs": signs,
        "verifies": verifies,
        "rolling_digest": rolling.hex(),
        "events": 0,
    }]


def scenario_wire_codec(scale: PerfScale) -> list[dict]:
    """Wire-framing microbenchmark: encode and decode live-tcp frames.

    Exercises the full socket path minus the socket: a representative mix of
    envelopes (client request in, Preprepare broadcast out, prepare votes,
    client response) is framed by :class:`~repro.net.wire.WireCodec` and
    decoded back, round-robin, the way ``TcpTransport`` does per message.
    Encoding measures the canonical-cache fast path (the broadcast case:
    one message framed for many destinations); decoding measures the strict
    parser plus instance construction.  The rolling digest over decoded
    frames pins determinism — and, because decode pins the wire slice as the
    canonical cache, it also proves decoded messages digest identically to
    what the sender signed.
    """
    from ..net.wire import WireCodec

    codec = WireCodec()
    iterations = max(1, scale.micro_ops // 40)
    envelopes = []
    for i in range(iterations):
        request = ClientRequest(
            request_id=RequestId(client=f"perf-client-{i % 16}", number=i),
            operations=(Operation(action="write", key=f"user{i % 997}",
                                  value=f"value-{i}"),))
        batch = RequestBatch(requests=(request,) * 4)
        envelopes.append(Envelope(
            source=f"client-{i % 16}", destination="replica-0",
            payload=request, sent_at=float(i), delivered_at=float(i) + 0.25))
        # one batch framed for three destinations: the broadcast fast path
        # where encode_frame reuses the instance's cached canonical bytes.
        for destination in range(3):
            envelopes.append(Envelope(
                source="replica-0", destination=f"replica-{destination + 1}",
                payload=batch, sent_at=float(i),
                delivered_at=float(i) + 0.5))
    frames = 0
    total_bytes = 0
    rolling = b"\x00" * 32
    for envelope in envelopes:
        frame = codec.encode_frame(envelope)
        frames += 1
        total_bytes += len(frame)
        decoded = codec.decode_frame(frame)
        rolling = combine_digests(rolling, digest(decoded))
    return [{
        "iterations": iterations,
        "frames": frames,
        "frame_bytes": total_bytes,
        "rolling_digest": rolling.hex(),
        "events": 0,
    }]


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
    "kernel": scenario_kernel,
    "network": scenario_network,
    "crypto": scenario_crypto,
    "wire_codec": scenario_wire_codec,
}


def metrics_digest(rows: list[dict]) -> str:
    """Deterministic digest of a scenario's simulated rows.

    Wall-clock values never appear in rows, so this digest is a pure function
    of simulated behaviour: identical before and after a legitimate
    performance optimisation, different whenever simulated results changed.
    """
    return digest(rows).hex()

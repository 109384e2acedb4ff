"""Experiment definitions reproducing every figure of the evaluation.

Each ``figure*`` function is a thin *matrix definition*: it expands its
sweep into content-hashed :class:`~repro.matrix.cell.Cell` objects, runs
them through the :class:`~repro.matrix.runner.MatrixRunner`, and returns
the flat row dictionaries (one per plotted point / table cell) as a plain
``list[dict]``; ``collate_curves(rows, axis=...)`` turns them into
figure-6-style curve series.  The experiments accept an
:class:`ExperimentScale` so the same code runs both at laptop scale (the
default, used by the test-suite and benchmarks) and at paper scale (f up to
32, 97 replicas, thousands of clients) when more time is available.

Mapping to the paper (see DESIGN.md for the full index):

* :func:`figure5_trusted_counter_costs`  — Figure 5 (bars a–g)
* :func:`figure6_throughput_latency`     — Figure 6(i)
* :func:`figure6_scalability`            — Figure 6(ii)/(iii)
* :func:`figure6_batching`               — Figure 6(iv)/(v)
* :func:`figure6_wan`                    — Figure 6(vi)/(vii)
* :func:`figure7_failure`                — Figure 7
* :func:`figure8_hardware_sweep`         — Figure 8
* :func:`figure9_throughput_per_machine` — Figure 9

Beyond the paper's figures:

* :func:`figure_sharding_scaleout` — aggregate throughput as the number of
  consensus groups grows (scale-out).
* :func:`figure_recovery` — throughput dip depth and time-to-recover after a
  timed crash → restart of one replica, with state transfer from peers, for
  a sequential trust-bft protocol vs a FlexiTrust one at both trusted-
  hardware persistence levels.
* :func:`figure_openloop` — one open-loop run (million-user arrivals,
  admission shedding, deadlines), the one definition behind ``repro
  openloop`` and the ``openloop_*`` determinism scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, Optional

from ..common.config import (
    DeploymentConfig,
    ExperimentConfig,
    FaultConfig,
    NetworkConfig,
    ProtocolConfig,
    ROLLBACK_PROTECTED_COUNTER,
    RecoveryConfig,
    SGX_ENCLAVE_COUNTER,
    TrustedHardwareSpec,
    WorkloadConfig,
)
from ..common.types import ms
from ..net.topology import PAPER_REGIONS
from ..protocols.family import FIGURE5_BARS
from ..protocols.registry import get_protocol
from ..recovery.schedule import FaultPlan
from ..workload.openloop import OpenLoopConfig
from .spec import DeploymentSpec

if TYPE_CHECKING:
    from ..matrix.cell import Cell


@dataclass(frozen=True)
class ExperimentScale:
    """Size knobs shared by every experiment."""

    name: str
    f: int = 1
    f_values: tuple[int, ...] = (1, 2, 3)
    num_clients: int = 60
    client_values: tuple[int, ...] = (20, 60, 120)
    batch_size: int = 20
    batch_values: tuple[int, ...] = (5, 20, 50, 100)
    warmup_batches: int = 3
    measured_batches: int = 12
    regions_max: int = 6
    wan_f: int = 1
    tc_latencies_ms: tuple[float, ...] = (0.025, 1.0, 2.5, 10.0, 30.0)
    protocols: tuple[str, ...] = (
        "pbft-ea", "minbft", "minzz", "opbft-ea", "flexi-bft", "flexi-zz",
        "pbft", "zyzzyva", "oflexi-bft", "oflexi-zz")
    core_protocols: tuple[str, ...] = (
        "pbft", "pbft-ea", "minbft", "minzz", "flexi-bft", "flexi-zz")
    worker_threads: int = 8
    max_sim_seconds: float = 60.0


#: Laptop-scale defaults used by the benchmarks and tests.
SMALL_SCALE = ExperimentScale(name="small")

#: Closer to the paper's setup (f = 8 default, f up to 32, 97 replicas).
PAPER_SCALE = ExperimentScale(
    name="paper", f=8, f_values=(4, 8, 16, 24, 32),
    num_clients=4000, client_values=(1000, 4000, 16000, 40000, 80000),
    batch_size=100, batch_values=(10, 100, 500, 1000, 5000),
    warmup_batches=10, measured_batches=100, wan_f=20,
    tc_latencies_ms=(1.0, 1.5, 2.0, 2.5, 3.0, 10.0, 30.0, 100.0, 200.0),
    worker_threads=16, max_sim_seconds=300.0)


# ---------------------------------------------------------------------------
# shared runner
# ---------------------------------------------------------------------------
def _run_cells(cells: list["Cell"]) -> list[dict]:
    """Run cells through the matrix runner (no persistence) into rows."""
    from ..matrix.runner import MatrixRunner  # lazy: matrix builds on runtime

    return MatrixRunner().run(cells).rows


def build_config(protocol: str, scale: ExperimentScale, *,
                 f: Optional[int] = None,
                 num_clients: Optional[int] = None,
                 batch_size: Optional[int] = None,
                 regions: tuple[str, ...] = ("san-jose",),
                 hardware: TrustedHardwareSpec = SGX_ENCLAVE_COUNTER,
                 crashed: tuple[int, ...] = (),
                 worker_threads: Optional[int] = None) -> DeploymentConfig:
    """Build the deployment configuration for one experiment point."""
    return DeploymentConfig(
        protocol=protocol,
        f=scale.f if f is None else f,
        trusted_hardware=hardware,
        network=NetworkConfig(region_names=regions),
        workload=WorkloadConfig(
            num_clients=scale.num_clients if num_clients is None else num_clients,
            records=2000),
        protocol_config=ProtocolConfig(
            batch_size=scale.batch_size if batch_size is None else batch_size,
            worker_threads=scale.worker_threads if worker_threads is None else worker_threads,
            checkpoint_interval=200),
        faults=FaultConfig(crashed=crashed),
        experiment=ExperimentConfig(
            warmup_batches=scale.warmup_batches,
            measured_batches=scale.measured_batches,
            max_sim_time_us=scale.max_sim_seconds * 1_000_000.0),
    )


def print_rows(title: str, rows: list[dict]) -> None:
    """Print experiment rows as an aligned text table."""
    print(f"\n== {title} ==")
    if not rows:
        print("(no rows)")
        return
    # Union of keys in first-seen order: sharded rows gain per-shard columns
    # as the shard count grows, and every column should be shown.
    keys = list(dict.fromkeys(k for row in rows for k in row))
    widths = {k: max(len(str(k)), max(len(str(r.get(k, ""))) for r in rows))
              for k in keys}
    print("  ".join(str(k).ljust(widths[k]) for k in keys))
    for row in rows:
        print("  ".join(str(row.get(k, "")).ljust(widths[k]) for k in keys))


# ---------------------------------------------------------------------------
# Figure 5: trusted counter / signature attestation costs on Pbft
# ---------------------------------------------------------------------------
def figure5_trusted_counter_costs(scale: ExperimentScale = SMALL_SCALE,
                                  hardware: TrustedHardwareSpec = SGX_ENCLAVE_COUNTER) -> list[dict]:
    """Peak Pbft throughput for each of the seven bars (single worker).

    Each bar is one cell: the spec carries the bar as its ``trusted_usage``,
    so the bar is part of the cell hash.
    """
    from ..matrix.cell import Cell

    config = build_config("pbft", scale, worker_threads=1, hardware=hardware)
    return _run_cells([
        Cell(spec=DeploymentSpec(config, trusted_usage=bar),
             axes={"bar": bar.label, "configuration": bar.description})
        for bar in FIGURE5_BARS])


# ---------------------------------------------------------------------------
# Figure 6(i): throughput vs latency as the client population grows
# ---------------------------------------------------------------------------
def figure6_throughput_latency(scale: ExperimentScale = SMALL_SCALE,
                               protocols: Optional[Iterable[str]] = None) -> list[dict]:
    """Throughput/latency pairs per protocol as offered load increases."""
    from ..matrix.spec import MatrixSpec

    matrix = MatrixSpec(name="figure6_throughput",
                        protocols=tuple(protocols or scale.protocols),
                        client_counts=scale.client_values, scale=scale)
    return _run_cells(matrix.cells())


# ---------------------------------------------------------------------------
# Figure 6(ii)/(iii): scalability in the number of replicas
# ---------------------------------------------------------------------------
def figure6_scalability(scale: ExperimentScale = SMALL_SCALE,
                        protocols: Optional[Iterable[str]] = None) -> list[dict]:
    """Throughput and latency as ``f`` (and hence n) grows."""
    from ..matrix.cell import Cell

    cells = []
    for protocol in (protocols or scale.core_protocols):
        spec = get_protocol(protocol)
        for f in scale.f_values:
            config = build_config(protocol, scale, f=f)
            cells.append(Cell(spec=DeploymentSpec(config),
                              axes={"f": f, "n": spec.replicas(f)}))
    return _run_cells(cells)


# ---------------------------------------------------------------------------
# Figure 6(iv)/(v): batching
# ---------------------------------------------------------------------------
def figure6_batching(scale: ExperimentScale = SMALL_SCALE,
                     protocols: Optional[Iterable[str]] = None) -> list[dict]:
    """Throughput and latency as the batch size grows.

    The client count is coupled to the batch size (enough offered load to
    fill the larger batches), so the cells are built directly rather than
    as an independent-axis product.
    """
    from ..matrix.cell import Cell

    cells = []
    for protocol in (protocols or scale.core_protocols):
        for batch_size in scale.batch_values:
            clients = max(scale.num_clients, 6 * batch_size)
            config = build_config(protocol, scale, batch_size=batch_size,
                                  num_clients=clients)
            cells.append(Cell(spec=DeploymentSpec(config),
                              axes={"batch_size": batch_size}))
    return _run_cells(cells)


# ---------------------------------------------------------------------------
# Figure 6(vi)/(vii): wide-area replication
# ---------------------------------------------------------------------------
def figure6_wan(scale: ExperimentScale = SMALL_SCALE,
                protocols: Optional[Iterable[str]] = None) -> list[dict]:
    """Throughput and latency as replicas spread over 1..6 regions."""
    from ..matrix.cell import Cell

    cells = []
    for protocol in (protocols or scale.core_protocols):
        for region_count in range(1, scale.regions_max + 1):
            regions = PAPER_REGIONS[:region_count]
            config = build_config(protocol, scale, f=scale.wan_f, regions=regions)
            cells.append(Cell(spec=DeploymentSpec(config),
                              axes={"regions": region_count}))
    return _run_cells(cells)


# ---------------------------------------------------------------------------
# Figure 7: impact of a single non-primary replica failure
# ---------------------------------------------------------------------------
def figure7_failure(scale: ExperimentScale = SMALL_SCALE,
                    protocols: Optional[Iterable[str]] = None,
                    f_values: Optional[tuple[int, ...]] = None) -> list[dict]:
    """Throughput/latency with one crashed non-primary replica."""
    from ..matrix.cell import Cell

    cells = []
    protocols = tuple(protocols or ("flexi-zz", "minzz", "zyzzyva", "flexi-bft", "minbft"))
    for protocol in protocols:
        spec = get_protocol(protocol)
        for f in (f_values or scale.f_values):
            n = spec.replicas(f)
            config = build_config(protocol, scale, f=f, crashed=(n - 1,))
            cells.append(Cell(spec=DeploymentSpec(config),
                              axes={"f": f, "n": n, "crashed": 1}))
    return _run_cells(cells)


# ---------------------------------------------------------------------------
# Figure 8: sweep of the trusted-hardware access latency
# ---------------------------------------------------------------------------
def figure8_hardware_sweep(scale: ExperimentScale = SMALL_SCALE,
                           protocols: Optional[Iterable[str]] = None) -> list[dict]:
    """Peak throughput versus trusted-counter access cost."""
    from ..matrix.cell import Cell

    cells = []
    protocols = tuple(protocols or ("flexi-zz", "minzz", "minbft"))
    for access_ms in scale.tc_latencies_ms:
        hardware = SGX_ENCLAVE_COUNTER.with_latency(ms(access_ms))
        for protocol in protocols:
            config = build_config(protocol, scale, hardware=hardware)
            cells.append(Cell(spec=DeploymentSpec(config),
                              axes={"access_cost_ms": access_ms}))
    return _run_cells(cells)


# ---------------------------------------------------------------------------
# Sharding scale-out: aggregate throughput vs. number of consensus groups
# ---------------------------------------------------------------------------
def figure_sharding_scaleout(scale: ExperimentScale = SMALL_SCALE,
                             protocols: Optional[Iterable[str]] = None,
                             shard_counts: tuple[int, ...] = (1, 2, 4)) -> list[dict]:
    """Aggregate throughput as the number of consensus groups grows.

    Keeps the offered load per shard constant (``scale.num_clients`` clients
    per group), so a protocol whose throughput per group is load-bound shows
    near-linear scale-out.  Compares a sequential trust-bft protocol
    (MinBFT) against a parallel FlexiTrust one (Flexi-BFT), extending the
    per-machine story of Figure 9 to multiple groups per deployment.
    """
    from ..matrix.cell import Cell

    cells = []
    for protocol in (protocols or ("minbft", "flexi-bft")):
        for num_shards in shard_counts:
            base = build_config(protocol, scale,
                                num_clients=scale.num_clients * num_shards)
            cells.append(Cell(
                spec=DeploymentSpec(base, num_shards=num_shards)))
    return _run_cells(cells)


# ---------------------------------------------------------------------------
# Recovery: crash → restart → state transfer → rejoin
# ---------------------------------------------------------------------------
def figure_recovery(scale: ExperimentScale = SMALL_SCALE,
                    protocols: Optional[Iterable[str]] = None,
                    hardware_levels: Optional[Iterable[TrustedHardwareSpec]] = None,
                    plan: FaultPlan = FaultPlan("crash-restart", crash_s=0.8,
                                                restart_s=1.4, end_s=2.6),
                    ) -> list[dict]:
    """Throughput dip and time-to-recover after a crash/restart of a replica.

    The ``plan`` crashes the highest non-primary replica at ``plan.crash_s``
    and restarts it at ``plan.restart_s``; the run ends at ``plan.end_s``.
    The restarted replica replays its durable store (20 µs per fsync),
    state-transfers the missing suffix from its peers, and rejoins
    consensus.  One cell per protocol and hardware level — a sequential
    trust-bft protocol versus a parallel FlexiTrust one, at both persistence
    levels of one access latency — carries the plan as its schedule and
    horizon, so its row holds the timeline columns of
    :func:`~repro.recovery.analysis.timeline_columns`, then ``backend`` and
    ``cell``.
    """
    from ..matrix.cell import Cell

    protocols = tuple(protocols or ("minbft", "flexi-bft"))
    hardware_levels = tuple(hardware_levels
                            or (SGX_ENCLAVE_COUNTER, ROLLBACK_PROTECTED_COUNTER))
    scale = replace(scale, max_sim_seconds=plan.end_s)
    recovery = RecoveryConfig(fsync_latency_us=20.0, replay_latency_us=5.0)
    cells = []
    for protocol in protocols:
        schedule = plan.schedule(protocol, scale.f)
        (crashed,) = schedule.crashed_replicas()
        for hardware in hardware_levels:
            config = build_config(protocol, scale, hardware=hardware)
            cells.append(Cell(
                spec=DeploymentSpec(config.with_updates(recovery=recovery),
                                    fault_schedule=schedule),
                axes={"hardware": hardware.name,
                      "persistent": hardware.persistent,
                      "crashed_replica": crashed}))
    return _run_cells(cells)


# ---------------------------------------------------------------------------
# Open loop: offered load, shedding and deadlines over a million users
# ---------------------------------------------------------------------------
def figure_openloop(scale: ExperimentScale, open_loop: OpenLoopConfig,
                    protocol: str = "flexi-bft", *, backend: str = "sim",
                    num_shards: Optional[int] = None,
                    records: Optional[int] = None) -> list[dict]:
    """One open-loop run: a row per rate segment if any, then a whole-run row.

    The deployment is sized by ``scale`` with one client per lane
    (``open_loop.max_in_flight``); ``records`` shrinks the keyspace so the
    Zipf head concentrates on a few keys.  The run is one cell, whose
    whole-run row carries the deployment columns plus
    :meth:`~repro.workload.openloop.OpenLoopEngine.row_columns`.
    """
    from ..matrix.cell import Cell

    config = build_config(protocol, scale, num_clients=open_loop.max_in_flight)
    if records is not None:
        config = config.with_updates(
            workload=replace(config.workload, records=records))
    return _run_cells([Cell(spec=DeploymentSpec(
        config, backend=backend, num_shards=num_shards,
        num_clients=open_loop.max_in_flight if num_shards else None,
        open_loop=open_loop))])


# ---------------------------------------------------------------------------
# Figure 9: throughput per machine
# ---------------------------------------------------------------------------
def figure9_throughput_per_machine(scale: ExperimentScale = SMALL_SCALE,
                                   protocols: Optional[Iterable[str]] = None) -> list[dict]:
    """Total throughput divided by the number of replicas, per ``f``."""
    from ..matrix.cell import Cell

    cells = []
    protocols = tuple(protocols or ("flexi-zz", "minzz"))
    for protocol in protocols:
        spec = get_protocol(protocol)
        for f in scale.f_values:
            config = build_config(protocol, scale, f=f)
            cells.append(Cell(spec=DeploymentSpec(config),
                              axes={"f": f, "n": spec.replicas(f)}))
    rows = _run_cells(cells)
    for row in rows:
        row["throughput_per_machine"] = round(
            row["throughput_tx_s"] / row["n"], 1)
    return rows


ALL_EXPERIMENTS = {
    "figure5": figure5_trusted_counter_costs,
    "figure6_throughput": figure6_throughput_latency,
    "figure6_scalability": figure6_scalability,
    "figure6_batching": figure6_batching,
    "figure6_wan": figure6_wan,
    "figure7": figure7_failure,
    "figure8": figure8_hardware_sweep,
    "figure9": figure9_throughput_per_machine,
    "figure_sharding_scaleout": figure_sharding_scaleout,
    "figure_recovery": figure_recovery,
}

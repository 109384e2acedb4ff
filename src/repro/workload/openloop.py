"""Open-loop arrival-process workload engine.

The closed-loop clients of :mod:`repro.workload.client` measure *capacity*:
each keeps one request outstanding, so offered load can never exceed what
the protocol sustains.  Overload questions — what happens to goodput and
latency when arrivals exceed capacity, how a primary saturates, how a
skewed keyspace hammers one shard — need an **open loop**: requests arrive
on their own schedule whether or not earlier ones finished (the paper's
Section 9.2 clients are closed-loop; the saturation knees of its throughput
figures are exactly where an open-loop view starts to matter).

The engine models *millions* of logical users with **O(active-requests)**
state.  Users are never materialised: each arrival draws a user index from
a Zipf popularity distribution (:class:`~repro.workload.zipf.ZipfianGenerator`
keeps O(1) state after a one-off zeta sum) and maps it onto the keyspace.
What the engine actually holds is bounded by ``max_in_flight``:

* a pool of request *lanes* — ordinary :class:`~repro.workload.client.Client`
  (or cross-shard :class:`~repro.workload.sharded_client.ShardedClient`)
  instances, one in-flight request each, reusing all the signing, quorum,
  slow-path and resend machinery;
* a free-lane stack, one pending deadline event per occupied lane, a single
  next-arrival event, and at most one burst-flip plus one segment-boundary
  event.

An arrival that finds every lane occupied is **shed** (counted, not queued
— the queue would be the O(users) state this engine exists to avoid, and
past saturation it would grow without bound anyway).  An admitted request
that misses its deadline is **abandoned** via
:meth:`~repro.workload.client.Client.abandon_pending`, which reports it to
the metrics sink distinctly from completions and in-flight requests.

Two arrival processes are supported: ``poisson`` (exponential gaps at the
configured mean rate) and ``bursty`` — a two-state MMPP whose on/off rates
are normalised so the *mean* rate stays the configured one: with duty cycle
``d = on/(on+off)`` and burst multiplier ``m``, the on-state rate is
``rate*m`` and the off-state rate ``rate*(1-d*m)/(1-d)``.  Piecewise
``segments`` scale the base rate over time (diurnal ramps).  All draws come
from one seeded rng stream, so an open-loop run is as deterministic as a
closed-loop one.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Optional, Sequence, Union

from ..common.errors import ConfigurationError, SimulationError
from ..common.types import MICROS_PER_SECOND, Micros
from ..execution.state_machine import Operation
from ..kernel import EventHandle, Kernel
from .ycsb import VALUE_SIZE
from .zipf import ZipfianGenerator

if TYPE_CHECKING:
    from ..runtime.deployment import Deployment, RunResult
    from ..sharding.deployment import ShardedDeployment

#: fraction of arrivals that are writes.
WRITE_FRACTION = 0.5


@dataclass(frozen=True)
class OpenLoopConfig:
    """Arrival process, user population and admission limits of one run.

    Hashed into matrix cell identities (via
    :meth:`~repro.runtime.spec.DeploymentSpec.describe`), so every field
    must stay plain data.
    """

    #: logical user population the Zipf popularity distribution draws from;
    #: the engine's state never grows with this number.
    num_users: int = 1_000_000
    #: mean offered load in transactions per second.
    arrival_rate_tx_s: float = 2_000.0
    #: ``poisson`` or ``bursty`` (two-state MMPP, mean rate preserved).
    process: str = "poisson"
    #: on-state rate multiplier of the bursty process.
    burst_multiplier: float = 4.0
    #: mean sojourn times of the bursty process's on/off states.
    mean_on_s: float = 0.05
    mean_off_s: float = 0.15
    #: Zipf skew over users (0 = uniform; 0.99 = YCSB-style hot users).
    user_theta: float = 0.99
    #: admission limit: lanes available for concurrently open requests.
    #: Arrivals beyond it are shed.  The deployment must be built with
    #: exactly this many clients (they become the lanes).
    max_in_flight: int = 64
    #: per-request deadline; an admitted request still unanswered after this
    #: long is abandoned and its lane freed.  ``None`` waits forever.
    deadline_us: Optional[Micros] = 400_000.0
    #: run length of a single-segment run (ignored when ``segments`` is set).
    duration_s: float = 0.5
    #: piecewise rate ramp: ``(duration_s, rate_multiplier)`` per segment.
    segments: tuple[tuple[float, float], ...] = ()

    @property
    def total_duration_s(self) -> float:
        """Run length: the segment sum, or ``duration_s`` when unsegmented."""
        if self.segments:
            return sum(duration for duration, _ in self.segments)
        return self.duration_s

    @property
    def duty_cycle(self) -> float:
        """Fraction of time the bursty process spends in its on state."""
        return self.mean_on_s / (self.mean_on_s + self.mean_off_s)

    def validate(self) -> None:
        """Reject parameter combinations with no sensible run."""
        if self.num_users <= 0:
            raise ConfigurationError("open loop needs a positive user population")
        if self.arrival_rate_tx_s <= 0:
            raise ConfigurationError("open loop needs a positive arrival rate")
        if self.process not in ("poisson", "bursty"):
            raise ConfigurationError(
                f"unknown arrival process {self.process!r}: "
                "expected 'poisson' or 'bursty'")
        if not 0.0 <= self.user_theta < 1.0:
            raise ConfigurationError("user_theta must be in [0, 1)")
        if self.max_in_flight <= 0:
            raise ConfigurationError("max_in_flight must be positive")
        if self.deadline_us is not None and self.deadline_us <= 0:
            raise ConfigurationError("deadline_us must be positive (or None)")
        if self.total_duration_s <= 0:
            raise ConfigurationError("open loop needs a positive duration")
        for index, (duration, multiplier) in enumerate(self.segments):
            if duration <= 0 or multiplier < 0:
                raise ConfigurationError(
                    f"segment {index}: needs positive duration and a "
                    "non-negative rate multiplier")
        if self.process == "bursty":
            if self.mean_on_s <= 0 or self.mean_off_s <= 0:
                raise ConfigurationError(
                    "bursty process needs positive on/off sojourn times")
            if self.burst_multiplier <= 0:
                raise ConfigurationError("burst_multiplier must be positive")
            if self.burst_multiplier * self.duty_cycle > 1.0 + 1e-12:
                raise ConfigurationError(
                    f"burst_multiplier {self.burst_multiplier} exceeds "
                    f"1/duty_cycle {1.0 / self.duty_cycle:.3f}: the off-state "
                    "rate would be negative (the mean rate is preserved)")


@dataclass
class OpenLoopStats:
    """What the arrival engine itself measured (lanes report to the sink)."""

    offered: int = 0
    admitted: int = 0
    shed: int = 0
    completed: int = 0
    abandoned: int = 0
    peak_in_flight: int = 0
    #: high-water mark of :meth:`OpenLoopEngine.resident_state` — the
    #: engine's whole footprint, bounded by :func:`run_open_loop`.
    peak_resident: int = 0
    #: one row per rate segment (diurnal ramps): counter deltas within it.
    segment_rows: list[dict] = field(default_factory=list)


class OpenLoopEngine:
    """Drives a pool of request lanes from a seeded arrival process.

    ``lanes`` are coordinator-driven clients: anything with ``submit``,
    ``abandon_pending`` and a reassignable ``on_complete`` — a plain
    :class:`~repro.workload.client.Client` and a cross-shard
    :class:`~repro.workload.sharded_client.ShardedClient` both qualify, so
    the same engine overloads a single group or a sharded deployment.
    The engine schedules purely through the :class:`~repro.kernel.Kernel`
    surface and runs unchanged on the simulator and the live backends.
    """

    def __init__(self, sim: Kernel, lanes: Sequence, config: OpenLoopConfig,
                 rng, records: int) -> None:
        config.validate()
        if not lanes:
            raise ConfigurationError("open loop needs at least one lane")
        self.sim = sim
        self.lanes = list(lanes)
        self.config = config
        self.stats = OpenLoopStats()
        self._rng = rng
        self._records = max(1, records)
        self._zipf = ZipfianGenerator(config.num_users, config.user_theta, rng)
        self._nonce = 0
        # O(active) state: a free-lane stack, one deadline event per
        # occupied lane, one arrival event, one flip, one boundary.
        self._free: list[int] = list(range(len(self.lanes) - 1, -1, -1))
        self._deadlines: dict[int, EventHandle] = {}
        self._arrival: Optional[EventHandle] = None
        self._flip: Optional[EventHandle] = None
        self._boundary: Optional[EventHandle] = None
        self._burst_on = False
        self._segments: tuple[tuple[float, float], ...] = (
            config.segments or ((config.duration_s, 1.0),))
        self._segment_index = 0
        self._segment_snapshot: tuple[int, ...] = (0, 0, 0, 0, 0)
        self._running = False
        for index, lane in enumerate(self.lanes):
            lane.on_complete = partial(self._on_lane_complete, index)

    # ------------------------------------------------------------ lifecycle
    def start(self) -> None:
        """Arm the arrival process (segments, burst state, first arrival)."""
        if self._running:
            raise ConfigurationError("open-loop engine already started")
        self._running = True
        self._segment_index = 0
        self._snapshot_segment()
        if self.config.process == "bursty":
            # Start in the stationary distribution: on with probability d.
            self._burst_on = self._rng.random() < self.config.duty_cycle
            self._schedule_flip()
        duration_us = self._segments[0][0] * MICROS_PER_SECOND
        self._boundary = self.sim.schedule(duration_us, self._on_boundary)
        self._schedule_arrival()

    def stop(self) -> None:
        """Cancel every engine event.

        Requests still on a lane are deliberately *not* abandoned: at the
        end of a run "still in flight" is a distinct outcome from "dropped
        at deadline", and the metrics keep them apart.
        """
        self._running = False
        for event in (self._arrival, self._flip, self._boundary):
            if event is not None:
                event.cancel()
        self._arrival = self._flip = self._boundary = None
        for event in self._deadlines.values():
            event.cancel()
        self._deadlines.clear()
        if self._segment_index < len(self._segments):
            self._finish_segment()
            self._segment_index = len(self._segments)

    # ----------------------------------------------------------- inspection
    def in_flight(self) -> int:
        """Lanes currently carrying a request."""
        return len(self.lanes) - len(self._free)

    def resident_state(self) -> int:
        """Total entries the engine holds right now, across every structure.

        This is the number the O(active-requests) claim is about: it is
        bounded by ``2 * max_in_flight + 3`` regardless of ``num_users``.
        """
        pending = sum(1 for event in (self._arrival, self._flip, self._boundary)
                      if event is not None)
        return len(self._free) + len(self._deadlines) + pending

    # ------------------------------------------------------------- arrivals
    def _rate_per_us(self) -> float:
        """Current arrival rate in requests per microsecond."""
        multiplier = self._segments[self._segment_index][1]
        if self.config.process == "bursty":
            if self._burst_on:
                multiplier *= self.config.burst_multiplier
            else:
                duty = self.config.duty_cycle
                multiplier *= (1.0 - duty * self.config.burst_multiplier) / (1.0 - duty)
        return self.config.arrival_rate_tx_s * multiplier / MICROS_PER_SECOND

    def _schedule_arrival(self) -> None:
        rate = self._rate_per_us()
        if rate <= 0.0:
            # A zero-rate stretch (off segment with m*d == 1, or a ramp
            # segment at multiplier 0): the next flip/boundary re-arms us.
            self._arrival = None
            return
        gap = self._rng.expovariate(rate)
        self._arrival = self.sim.schedule(gap, self._on_arrival)

    def _reschedule_arrival(self) -> None:
        """Redraw the pending gap after a rate change.

        Valid without bias because exponential gaps are memoryless: the
        time already waited carries no information about the remainder.
        """
        if self._arrival is not None:
            self._arrival.cancel()
        self._schedule_arrival()

    def _on_arrival(self) -> None:
        self._arrival = None
        stats = self.stats
        stats.offered += 1
        if self._free:
            index = self._free.pop()
            self.lanes[index].submit(self._next_operations())
            deadline = self.config.deadline_us
            if deadline is not None:
                self._deadlines[index] = self.sim.schedule(
                    deadline, partial(self._on_deadline, index))
            stats.admitted += 1
            in_flight = self.in_flight()
            if in_flight > stats.peak_in_flight:
                stats.peak_in_flight = in_flight
            resident = self.resident_state() + 1  # + the arrival being armed
            if resident > stats.peak_resident:
                stats.peak_resident = resident
        else:
            stats.shed += 1
        self._schedule_arrival()

    def _next_operations(self) -> tuple:
        """One transaction from the next (Zipf-popular) logical user.

        The user population is folded onto the store's key space, so the
        hottest users hit the hottest keys — and, under a sharded router,
        the hottest shard.
        """
        user = self._zipf.next()
        key = f"user{user % self._records}"
        if self._rng.random() < WRITE_FRACTION:
            return (Operation(action="write", key=key,
                              value=self._payload(key)),)
        return (Operation(action="read", key=key),)

    def _payload(self, key: str) -> str:
        self._nonce += 1
        seed = hashlib.sha256(f"{key}/{self._nonce}".encode()).hexdigest()
        return (seed * (VALUE_SIZE // len(seed) + 1))[:VALUE_SIZE]

    # ---------------------------------------------------------- completions
    def _on_lane_complete(self, index: int) -> None:
        event = self._deadlines.pop(index, None)
        if event is not None:
            event.cancel()
        self.stats.completed += 1
        self._free.append(index)

    def _on_deadline(self, index: int) -> None:
        self._deadlines.pop(index, None)
        self.lanes[index].abandon_pending(reason="deadline")
        self.stats.abandoned += 1
        self._free.append(index)

    # ------------------------------------------------------ bursts and ramps
    def _schedule_flip(self) -> None:
        mean_s = (self.config.mean_on_s if self._burst_on
                  else self.config.mean_off_s)
        gap = self._rng.expovariate(1.0 / (mean_s * MICROS_PER_SECOND))
        self._flip = self.sim.schedule(gap, self._on_flip)

    def _on_flip(self) -> None:
        self._flip = None
        self._burst_on = not self._burst_on
        self._reschedule_arrival()
        self._schedule_flip()

    def _snapshot_segment(self) -> None:
        stats = self.stats
        self._segment_snapshot = (stats.offered, stats.admitted, stats.shed,
                                  stats.completed, stats.abandoned)

    def _finish_segment(self) -> None:
        stats = self.stats
        offered, admitted, shed, completed, abandoned = self._segment_snapshot
        self.stats.segment_rows.append({
            "segment": self._segment_index,
            "rate_multiplier": self._segments[self._segment_index][1],
            "offered": stats.offered - offered,
            "admitted": stats.admitted - admitted,
            "shed": stats.shed - shed,
            "completed": stats.completed - completed,
            "abandoned": stats.abandoned - abandoned,
        })

    def _on_boundary(self) -> None:
        self._boundary = None
        self._finish_segment()
        self._segment_index += 1
        if self._segment_index >= len(self._segments):
            # Past the last segment: stop generating, let in-flight drain.
            if self._arrival is not None:
                self._arrival.cancel()
                self._arrival = None
            if self._flip is not None:
                self._flip.cancel()
                self._flip = None
            return
        self._snapshot_segment()
        duration_us = self._segments[self._segment_index][0] * MICROS_PER_SECOND
        self._boundary = self.sim.schedule(duration_us, self._on_boundary)
        self._reschedule_arrival()

    # ------------------------------------------------------------------ rows
    def row_columns(self, result: "RunResult", deployment) -> dict:
        """Configuration and counters, then the view-0 primary's worker-pool
        utilisation or, sharded, each shard's completions and the hottest
        shard's share of them."""
        config, stats = self.config, self.stats
        row = {
            "num_users": config.num_users,
            "process": config.process,
            "offered_tx_s": round(config.arrival_rate_tx_s, 1),
            "goodput_tx_s": round(stats.completed / config.total_duration_s, 1),
            "offered": stats.offered,
            "admitted": stats.admitted,
            "shed": stats.shed,
            "shed_fraction": round(stats.shed / max(1, stats.offered), 4),
            "abandoned": stats.abandoned,
            "peak_in_flight": stats.peak_in_flight,
            "peak_resident": stats.peak_resident,
        }
        if config.segments:
            row["segment"] = "all"
        completed = result.per_shard_completed
        if completed:
            total = max(1, sum(completed.values()))
            row["hot_shard_share"] = round(max(completed.values()) / total, 4)
            for shard in sorted(completed):
                row[f"shard{shard}_completed"] = completed[shard]
        else:
            row["primary_utilisation"] = round(
                deployment.primary.workers.stats.utilisation(
                    deployment.sim.now,
                    deployment.protocol_config.worker_threads), 4)
        return row


def attach_open_loop(deployment: Union["Deployment", "ShardedDeployment"],
                     config: OpenLoopConfig) -> OpenLoopEngine:
    """Bind an engine to a deployment's clients (they become the lanes).

    Client identities are fixed in the topology when the deployment is
    built, so the lane pool *is* ``deployment.clients``: build the
    deployment with ``workload.num_clients`` (or the sharded
    ``num_clients``) equal to ``config.max_in_flight``.
    """
    lanes = deployment.clients
    if len(lanes) != config.max_in_flight:
        raise ConfigurationError(
            f"open loop wants max_in_flight={config.max_in_flight} lanes but "
            f"the deployment was built with {len(lanes)} clients; build it "
            "with num_clients == max_in_flight")
    return OpenLoopEngine(deployment.sim, lanes, config,
                          rng=deployment.rng.stream("openloop"),
                          records=deployment.config.workload.records)


def run_open_loop(deployment: Union["Deployment", "ShardedDeployment"],
                  config: OpenLoopConfig, warmup_fraction: float = 0.1
                  ) -> tuple[OpenLoopEngine, "RunResult"]:
    """Run one open-loop experiment on an already-built deployment.

    Drives the backend's kernel directly for the configured duration —
    never ``deployment.run_for``, whose live branch starts the closed-loop
    clients (open-loop lanes have no workload of their own to start).
    """
    engine = attach_open_loop(deployment, config)
    engine.start()
    duration_us = config.total_duration_s * MICROS_PER_SECOND
    deployment.backend.run_for(deployment.sim, duration_us)
    engine.stop()
    # The million-user contract: engine state is O(active requests) —
    # free-lane stack + armed deadlines + the arrival/flip/boundary events —
    # never O(num_users).  An explicit raise, so ``python -O`` keeps it.
    if engine.stats.peak_resident > 2 * config.max_in_flight + 3:
        raise SimulationError(
            f"open-loop resident state {engine.stats.peak_resident} exceeds "
            f"the O(active) bound for {config.max_in_flight} lanes")
    return engine, deployment.collect_result(warmup_fraction)

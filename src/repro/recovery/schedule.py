"""Timed fault schedules: crash, restart, partition and heal events.

The static ``FaultConfig.crashed`` tuple can only express "this replica was
dead from the start".  A :class:`FaultSchedule` generalises it to a timeline
of events driven by simulator timers, which is what churn, recovery and
rejoin scenarios need:

* ``crash(replica, t)`` — the replica stops processing and sending.
* ``restart(replica, t)`` — the deployment tears the replica down and builds
  a fresh incarnation on the same seat; protocol state is lost, the durable
  store survives, and the trusted component resets or resumes according to
  the hardware's persistence (Section 6).
* ``partition(replicas, t, name)`` — the named replica set is cut off from
  the rest of the deployment (drops in both directions).
* ``heal(t, name)`` — removes the named partition.

Schedules are plain data: build one with the ``crash_at`` / ``restart_at`` /
``partition_at`` / ``heal_at`` helpers and pass it to
:class:`~repro.runtime.deployment.Deployment` (or, per group, to
:class:`~repro.sharding.deployment.ShardedDeployment`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Iterable, Optional

from ..common.errors import ConfigurationError
from ..common.types import Micros, ReplicaId
from ..net.network import MessageRule

if TYPE_CHECKING:
    from ..runtime.deployment import Deployment


class FaultEventKind(enum.Enum):
    """What a scheduled fault event does to the deployment."""

    CRASH = "crash"
    RESTART = "restart"
    PARTITION = "partition"
    HEAL = "heal"


@dataclass(frozen=True)
class FaultEvent:
    """One timed fault event.

    ``replica`` addresses crash/restart events; ``replicas`` + ``name``
    describe a partition; ``name`` alone identifies the partition a heal
    removes.  ``recover`` controls whether a restarted replica runs the
    recovery protocol (local replay + peer state transfer) — a byzantine host
    modelling a disk wipe restarts with ``recover=False``.
    """

    kind: FaultEventKind
    at_us: Micros
    replica: Optional[ReplicaId] = None
    replicas: frozenset[ReplicaId] = frozenset()
    name: str = ""
    recover: bool = True
    wipe_store: bool = False


def crash_at(replica: ReplicaId, at_us: Micros) -> FaultEvent:
    """Crash ``replica`` at ``at_us``."""
    return FaultEvent(kind=FaultEventKind.CRASH, at_us=at_us, replica=replica)


def restart_at(replica: ReplicaId, at_us: Micros, recover: bool = True,
               wipe_store: bool = False) -> FaultEvent:
    """Restart ``replica`` at ``at_us`` (it must have crashed earlier)."""
    return FaultEvent(kind=FaultEventKind.RESTART, at_us=at_us, replica=replica,
                      recover=recover, wipe_store=wipe_store)


def partition_at(replicas: Iterable[ReplicaId], at_us: Micros,
                 name: str = "partition") -> FaultEvent:
    """Cut ``replicas`` off from the rest of the deployment at ``at_us``."""
    return FaultEvent(kind=FaultEventKind.PARTITION, at_us=at_us,
                      replicas=frozenset(replicas), name=name)


def heal_at(at_us: Micros, name: str = "partition") -> FaultEvent:
    """Remove the partition called ``name`` at ``at_us``."""
    return FaultEvent(kind=FaultEventKind.HEAL, at_us=at_us, name=name)


@dataclass(frozen=True)
class FaultSchedule:
    """An ordered timeline of fault events for one deployment."""

    events: tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.events, key=lambda e: e.at_us))
        object.__setattr__(self, "events", ordered)

    # ----------------------------------------------------------- validation
    def validate(self, n: int, f: int,
                 static_crashed: Iterable[ReplicaId] = (),
                 byzantine: Iterable[ReplicaId] = ()) -> None:
        """Check the schedule against deployment size and fault threshold.

        Crash/restart pairs must alternate per replica, every addressed
        replica must exist, and at no point may more than ``f`` replicas be
        faulty simultaneously — counting the deployment's static faults
        (``FaultConfig.crashed`` replicas start down, ``byzantine`` ones are
        faulty throughout).  A schedule is a *tolerable* fault scenario; an
        adversary exceeding ``f`` belongs in an attack script, not here.
        """
        down: set[ReplicaId] = set(static_crashed)
        always_faulty = frozenset(byzantine)
        max_down = len(down | always_faulty)
        for event in self.events:
            if event.at_us < 0:
                raise ConfigurationError("fault events cannot be scheduled in the past")
            targets = ({event.replica} if event.replica is not None
                       else set(event.replicas))
            for rid in targets:
                if not 0 <= rid < n:
                    raise ConfigurationError(
                        f"fault event addresses replica {rid}, but the "
                        f"deployment only has replicas 0..{n - 1}")
            if event.kind is FaultEventKind.CRASH:
                if event.replica is None:
                    raise ConfigurationError("crash events need a replica")
                if event.replica in down:
                    raise ConfigurationError(
                        f"replica {event.replica} crashed twice without a restart")
                down.add(event.replica)
                max_down = max(max_down, len(down | always_faulty))
            elif event.kind is FaultEventKind.RESTART:
                if event.replica is None:
                    raise ConfigurationError("restart events need a replica")
                if event.replica not in down:
                    raise ConfigurationError(
                        f"replica {event.replica} restarted without a prior crash")
                down.discard(event.replica)
            elif event.kind is FaultEventKind.PARTITION:
                if not event.replicas:
                    raise ConfigurationError("partition events need a replica set")
            elif event.kind is FaultEventKind.HEAL:
                if not event.name:
                    raise ConfigurationError("heal events need a partition name")
        if max_down > f:
            raise ConfigurationError(
                f"schedule makes {max_down} replicas faulty simultaneously "
                f"(including statically crashed/byzantine ones) but the "
                f"protocol only tolerates f={f}")

    def crashed_replicas(self) -> set[ReplicaId]:
        """Every replica the schedule crashes at some point."""
        return {e.replica for e in self.events
                if e.kind is FaultEventKind.CRASH and e.replica is not None}

    # ------------------------------------------------------------- install
    def install(self, deployment: "Deployment") -> None:
        """Arm one simulator timer per event against ``deployment``."""
        for event in self.events:
            # partial, not a lambda: binds this iteration's event (a
            # closure would see the loop variable's last value).
            deployment.sim.schedule_at(
                event.at_us, partial(self._fire, deployment, event))

    def _fire(self, deployment: "Deployment", event: FaultEvent) -> None:
        if event.kind is FaultEventKind.CRASH:
            deployment.crash_replica(event.replica)
        elif event.kind is FaultEventKind.RESTART:
            deployment.restart_replica(event.replica, recover=event.recover,
                                       wipe_store=event.wipe_store)
        elif event.kind is FaultEventKind.PARTITION:
            inside = frozenset(deployment.replica_names[r] for r in event.replicas)
            outside = frozenset(name for name in deployment.replica_names
                                if name not in inside)
            for sources, destinations in ((inside, outside), (outside, inside)):
                deployment.network.add_rule(MessageRule(
                    name=event.name, sources=sources,
                    destinations=destinations, drop=True))
        elif event.kind is FaultEventKind.HEAL:
            for rule in deployment.network.rules():
                if rule.name == event.name:
                    deployment.network.remove_rule(rule)

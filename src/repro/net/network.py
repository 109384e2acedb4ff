"""Message transport between replicas and clients.

The network delivers every message after the topology latency plus jitter,
models the partial-synchrony assumption of Section 2 (messages may be delayed
or dropped — safety never depends on timing), and gives experiments an
explicit adversarial control surface: *rules* that drop or delay messages
matching a predicate.  The responsiveness attack of Section 5 is literally a
pair of rules ("byzantine replicas send nothing to D", "Prepare from r to D is
delayed").
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Optional, Protocol, runtime_checkable

from ..common.types import Micros
from ..crypto.digest import stores_fields
from ..kernel import Kernel
from ..obsv.trace import request_trace_id
from ..sim.rng import RngRegistry
from .topology import Topology


@stores_fields
@dataclass(frozen=True, slots=True)
class Envelope:
    """A message in flight: payload plus addressing metadata."""

    source: str
    destination: str
    payload: object
    sent_at: Micros
    delivered_at: Micros


class NetworkNode(Protocol):
    """Anything that can be attached to the network."""

    name: str

    def receive(self, envelope: Envelope) -> None:
        """Handle a delivered message."""


@runtime_checkable
class Transport(Protocol):
    """The message-transport surface replicas and clients depend on.

    :class:`Network` (discrete-event delivery on the simulator) and
    :class:`~repro.realtime.network.LiveNetwork` (asyncio-queue delivery on
    the live backend) both implement it; protocol code never imports a
    concrete transport.
    """

    stats: "NetworkStats"

    def register(self, node: NetworkNode) -> None:
        """Attach a node; its ``name`` becomes its network address."""

    def send(self, source: str, destination: str, payload: object,
             earliest_departure: Optional[Micros] = None) -> None:
        """Deliver ``payload`` from ``source`` to ``destination``."""

    def broadcast(self, source: str, destinations: Iterable[str], payload: object,
                  earliest_departure: Optional[Micros] = None,
                  include_self: bool = False) -> None:
        """Send the same payload to every destination (optionally to self)."""


@dataclass
class MessageRule:
    """An adversarial (or fault-injection) rule applied to matching messages.

    ``sources`` / ``destinations`` of ``None`` match every node.  ``matcher``
    optionally inspects the payload (e.g. only Prepare messages).  ``drop``
    discards the message; otherwise ``extra_delay_us`` is added to its
    delivery time.  ``until_us`` bounds the rule in simulated time, modelling
    the *temporary* delays of a partially synchronous network.
    """

    name: str
    sources: Optional[frozenset[str]] = None
    destinations: Optional[frozenset[str]] = None
    matcher: Optional[Callable[[object], bool]] = None
    drop: bool = False
    extra_delay_us: Micros = 0.0
    until_us: Optional[Micros] = None
    hits: int = 0

    def applies(self, source: str, destination: str, payload: object,
                now: Micros) -> bool:
        """Whether this rule matches the given message right now."""
        if self.until_us is not None and now >= self.until_us:
            return False
        if self.sources is not None and source not in self.sources:
            return False
        if self.destinations is not None and destination not in self.destinations:
            return False
        if self.matcher is not None and not self.matcher(payload):
            return False
        return True


@dataclass(slots=True)
class NetworkStats:
    """Aggregate transport statistics."""

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0


class Network:
    """Point-to-point authenticated-channel transport over the topology.

    Runs on any :class:`~repro.kernel.Kernel`.  Subclasses override
    :meth:`_schedule_delivery` to change *how* a computed delivery happens
    (the live backend enqueues onto asyncio queues) without touching the
    rule, latency and jitter model above it.
    """

    def __init__(self, sim: Kernel, topology: Topology,
                 rng: RngRegistry, jitter_fraction: float = 0.05,
                 per_message_wire_us: Micros = 0.5) -> None:
        self._sim = sim
        self._topology = topology
        self._jitter_fraction = jitter_fraction
        self._wire_us = per_message_wire_us
        self._rng = rng.stream("network-jitter")
        self._nodes: dict[str, NetworkNode] = {}
        self._rules: list[MessageRule] = []
        self.stats = NetworkStats()
        self._tracer = None

    def set_tracer(self, tracer) -> None:
        """Attach (or detach, with None) a structured-event tracer."""
        self._tracer = tracer

    def connection_states(self) -> dict:
        """Transport connection snapshot for diagnostics bundles.

        The base transport delivers through the kernel, so there is nothing
        to connect; the TCP transport overrides this with real per-peer
        socket state (including peer addresses).
        """
        return {"transport": type(self).__name__,
                "nodes": sorted(self._nodes)}

    # ----------------------------------------------------------- membership
    def register(self, node: NetworkNode) -> None:
        """Attach a node; its ``name`` becomes its network address."""
        self._nodes[node.name] = node

    def node_names(self) -> list[str]:
        """All registered node names, sorted."""
        return sorted(self._nodes)

    def close(self) -> list:
        """Detach every node; returns the transport tasks still to await.

        Nodes hold their transport, so a transport that kept its nodes
        would keep a finished deployment alive until a cyclic collection.
        The simulated transport runs no tasks; the live ones return theirs.
        """
        self._nodes.clear()
        return []

    # -------------------------------------------------------------- sending
    def send(self, source: str, destination: str, payload: object,
             earliest_departure: Optional[Micros] = None) -> None:
        """Send ``payload`` from ``source`` to ``destination``.

        ``earliest_departure`` lets the replica runtime defer the wire time of
        a message until its CPU and trusted-hardware costs have been paid.
        Unknown destinations are silently dropped (a crashed node that was
        removed from the network, for example).
        """
        now = self._sim.now
        departure = now if earliest_departure is None else max(now, earliest_departure)
        stats = self.stats
        stats.messages_sent += 1

        extra_delay = 0.0
        if self._rules:
            for rule in self._rules:
                if rule.applies(source, destination, payload, departure):
                    rule.hits += 1
                    if rule.drop:
                        stats.messages_dropped += 1
                        tracer = self._tracer
                        if tracer is not None:
                            tracer.record("msg.drop", node=destination,
                                          detail=type(payload).__name__)
                        return
                    extra_delay += rule.extra_delay_us

        latency = self._topology.latency_us(source, destination) + self._wire_us
        if self._jitter_fraction > 0:
            latency *= 1.0 + self._rng.random() * self._jitter_fraction
        delivered_at = departure + latency + extra_delay
        envelope = Envelope(source, destination, payload, departure,
                            delivered_at)
        target = self._nodes.get(destination)
        if target is None:
            self.stats.messages_dropped += 1
            tracer = self._tracer
            if tracer is not None:
                tracer.record("msg.drop", node=destination,
                              detail=type(payload).__name__)
            return
        tracer = self._tracer
        if tracer is not None:
            tracer.record("msg.send", node=source,
                          detail=type(payload).__name__)
        self._schedule_delivery(target, envelope)

    def _schedule_delivery(self, target: NetworkNode,
                           envelope: Envelope) -> None:
        """Arrange for ``envelope`` to reach ``target`` at its delivery time."""
        # partial, not a lambda: the delivery stays a named method with its
        # arguments bound (no closure cell, attributable by the tracers).
        # Deliveries are never cancelled: the kernel's handle-free path.
        self._sim.schedule_call(envelope.delivered_at,
                                partial(self._deliver, target, envelope))

    def broadcast(self, source: str, destinations: Iterable[str], payload: object,
                  earliest_departure: Optional[Micros] = None,
                  include_self: bool = False) -> None:
        """Send the same payload to every destination (optionally to self)."""
        for destination in destinations:
            if not include_self and destination == source:
                continue
            self.send(source, destination, payload, earliest_departure)

    def _deliver(self, node: NetworkNode, envelope: Envelope) -> None:
        self.stats.messages_delivered += 1
        tracer = self._tracer
        if tracer is not None:
            payload = envelope.payload
            tracer.record("msg.recv", node=envelope.destination,
                          detail=type(payload).__name__,
                          trace_id=request_trace_id(payload))
        node.receive(envelope)

    # ---------------------------------------------------- adversary control
    def add_rule(self, rule: MessageRule) -> MessageRule:
        """Install an adversarial / fault-injection rule."""
        self._rules.append(rule)
        return rule

    def remove_rule(self, rule: MessageRule) -> None:
        """Remove a previously installed rule (heals the network)."""
        if rule in self._rules:
            self._rules.remove(rule)

    def rules(self) -> list[MessageRule]:
        """Currently installed rules (read-only copy)."""
        return list(self._rules)


def drop_all_from(name: str, sources: Iterable[str],
                  destinations: Optional[Iterable[str]] = None) -> MessageRule:
    """Convenience rule: ``sources`` send nothing to ``destinations``."""
    return MessageRule(
        name=name,
        sources=frozenset(sources),
        destinations=None if destinations is None else frozenset(destinations),
        drop=True,
    )


def delay_matching(name: str, sources: Iterable[str], destinations: Iterable[str],
                   matcher: Callable[[object], bool],
                   extra_delay_us: Micros,
                   until_us: Optional[Micros] = None) -> MessageRule:
    """Convenience rule: delay matching messages between two node sets."""
    return MessageRule(
        name=name,
        sources=frozenset(sources),
        destinations=frozenset(destinations),
        matcher=matcher,
        extra_delay_us=extra_delay_us,
        until_us=until_us,
    )

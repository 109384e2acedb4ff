"""Knob census: every value a ``DeploymentSpec`` can set, listed once.

The rule this pins: a value is a field only if some code in the repository
(``src/``, ``benchmarks/``, ``examples/`` or ``tests/``, apart from a test
of the field's own range check) sets it to something other than its
default.  A value nothing turns is a named constant beside its one reader,
with no validation and no branch that only another value could reach.

The census walks the type hints from :class:`DeploymentSpec`, visits each
dataclass once, and lists its non-dataclass fields as ``Class.field``.
Adding a knob means adding its name to :data:`KNOBS` in the same diff, so
the new field is in front of review together with the code that turns it.
"""

from __future__ import annotations

import typing
from dataclasses import fields, is_dataclass

from repro.runtime.spec import DeploymentSpec

KNOBS = frozenset({
    "DeploymentConfig.protocol",
    "DeploymentConfig.f",
    "TrustedHardwareSpec.name",
    "TrustedHardwareSpec.access_latency_us",
    "TrustedHardwareSpec.persistent",
    "NetworkConfig.region_names",
    "NetworkConfig.seed",
    "WorkloadConfig.num_clients",
    "WorkloadConfig.records",
    "WorkloadConfig.write_fraction",
    "WorkloadConfig.requests_per_client_message",
    "WorkloadConfig.seed",
    "ProtocolConfig.batch_size",
    "ProtocolConfig.max_outstanding",
    "ProtocolConfig.checkpoint_interval",
    "ProtocolConfig.request_timeout_us",
    "ProtocolConfig.view_change_timeout_us",
    "ProtocolConfig.batch_timeout_us",
    "ProtocolConfig.worker_threads",
    "FaultConfig.crashed",
    "FaultConfig.byzantine",
    "ExperimentConfig.warmup_batches",
    "ExperimentConfig.measured_batches",
    "ExperimentConfig.max_sim_time_us",
    "ExperimentConfig.seed",
    "RecoveryConfig.fsync_latency_us",
    "RecoveryConfig.replay_latency_us",
    "DeploymentSpec.backend",
    "DeploymentSpec.num_shards",
    "DeploymentSpec.num_clients",
    "DeploymentSpec.router_seed",
    "FaultEvent.kind",
    "FaultEvent.at_us",
    "FaultEvent.replica",
    "FaultEvent.replicas",
    "FaultEvent.name",
    "ObservabilityConfig.trace",
    "ObservabilityConfig.collect_health",
    "ObservabilityConfig.health_interval_us",
    "ObservabilityConfig.stall_after_us",
    "OpenLoopConfig.num_users",
    "OpenLoopConfig.arrival_rate_tx_s",
    "OpenLoopConfig.process",
    "OpenLoopConfig.burst_multiplier",
    "OpenLoopConfig.mean_on_s",
    "OpenLoopConfig.mean_off_s",
    "OpenLoopConfig.user_theta",
    "OpenLoopConfig.max_in_flight",
    "OpenLoopConfig.deadline_us",
    "OpenLoopConfig.duration_s",
    "OpenLoopConfig.segments",
    "TrustedUsage.label",
    "TrustedUsage.description",
    "TrustedUsage.primary_tc",
    "TrustedUsage.primary_sa",
    "TrustedUsage.all_replicas",
    "TrustedUsage.all_phases",
})


def _types_in(hint) -> typing.Iterator[type]:
    """Every class named by ``hint``, through Optional, Union and generics."""
    if isinstance(hint, type):
        yield hint
    for argument in typing.get_args(hint):
        yield from _types_in(argument)


def census(root: type = DeploymentSpec) -> list[str]:
    """``Class.field`` for every leaf value reachable from ``root``."""
    leaves: list[str] = []
    seen: set[type] = set()

    def visit(cls: type) -> None:
        if cls in seen:
            return
        seen.add(cls)
        hints = typing.get_type_hints(cls)
        for spec_field in fields(cls):
            nested = [t for t in _types_in(hints[spec_field.name])
                      if is_dataclass(t)]
            if nested:
                for child in nested:
                    visit(child)
            else:
                leaves.append(f"{cls.__name__}.{spec_field.name}")

    visit(root)
    return leaves


def test_each_leaf_is_counted_once():
    leaves = census()
    assert len(leaves) == len(set(leaves))


def test_the_settable_values_are_the_committed_list():
    leaves = set(census())
    assert leaves == KNOBS, (
        f"added: {sorted(leaves - KNOBS)}, removed: {sorted(KNOBS - leaves)}")

"""Observability layer: structured tracing, health surfaces, stall watchdog.

Four facilities, all off by default and free when disabled:

- :mod:`~repro.obsv.trace` — a bounded ring buffer of typed events with
  allocation-free disabled hooks in the kernels, transports and protocol
  base class.
- :mod:`~repro.obsv.health` — per-replica and per-deployment state
  snapshots, folded into metrics rows when collection is on, and the
  periodic health samples as a JSONL time series (``repro live
  --health-out``).
- :mod:`~repro.obsv.watchdog` — an in-kernel stall detector for live runs
  that converts the anonymous wall-clock timeout into a typed
  :class:`~repro.common.errors.StallError` carrying a diagnostics bundle.
- :mod:`~repro.obsv.spans` — per-request lifecycle spans reconstructed
  from the request-keyed trace, with a four-phase latency decomposition
  (``repro trace analyze FILE``).

Enable any of them by passing an :class:`ObservabilityConfig` to a
deployment (or ``DeploymentSpec(observe=...)``), or from the CLI via
``repro live --trace FILE --health-interval S``.
"""

from .health import (DeploymentHealth, HealthSampler, ObservabilityConfig,
                     ReplicaHealth, write_health_jsonl)
from .spans import (RequestSpan, SpanSummary, analyze_events, analyze_file,
                    format_summary, reconstruct_spans, summarise_spans)
from .trace import DEFAULT_TRACE_CAPACITY, TraceEvent, Tracer, read_jsonl
from .watchdog import (StallWatchdog, deployment_health, diagnose_suspect,
                       snapshot_diagnostics, write_diagnostics)

__all__ = [
    "DEFAULT_TRACE_CAPACITY",
    "DeploymentHealth",
    "HealthSampler",
    "ObservabilityConfig",
    "ReplicaHealth",
    "RequestSpan",
    "SpanSummary",
    "StallWatchdog",
    "TraceEvent",
    "Tracer",
    "analyze_events",
    "analyze_file",
    "deployment_health",
    "diagnose_suspect",
    "format_summary",
    "read_jsonl",
    "reconstruct_spans",
    "snapshot_diagnostics",
    "summarise_spans",
    "write_diagnostics",
    "write_health_jsonl",
]

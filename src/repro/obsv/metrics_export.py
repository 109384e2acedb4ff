"""Metrics export: Prometheus text endpoint and health JSONL time series.

Two thin surfaces over the observability layer, neither adding a dependency
or a thread:

* :func:`prometheus_text` renders a :class:`~repro.obsv.health.DeploymentHealth`
  snapshot — plus, when available, tracer event counts and a reconstructed
  span latency decomposition — in the Prometheus text exposition format
  (version 0.0.4).  :class:`MetricsExporter` serves it over HTTP from an
  ``asyncio`` server created on the live kernel's own event loop, so
  ``repro live --metrics-port 9464`` is scrapable while the run is in
  flight and costs nothing when it is not being scraped.
* :func:`write_health_jsonl` persists a
  :class:`~repro.obsv.health.HealthSampler`'s periodic samples as one JSON
  object per line — the run's health time series, greppable and plottable
  after the fact.

The exporter is live-backend only by construction (it needs a real event
loop); simulated runs export their metrics through the perf harness's
``BENCH_*.json`` files instead.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from .health import DeploymentHealth
from .spans import SpanSummary

if TYPE_CHECKING:
    import asyncio

    from ..realtime.kernel import AsyncioKernel


def _escape_label(value: str) -> str:
    """Escape a label value per the text exposition format."""
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def prometheus_text(health: DeploymentHealth,
                    trace_counts: Optional[dict] = None,
                    span_summary: Optional[SpanSummary] = None) -> str:
    """Render one scrape in the Prometheus text format (version 0.0.4).

    Gauges describe "now" (views, queue depths, pending events); counters
    carry the run's monotonic totals (completed requests, trace events).
    """
    lines: list[str] = []

    def metric(name: str, kind: str, help_text: str,
               samples: Iterable[tuple[str, float]]) -> None:
        rendered = [f"repro_{name}{labels} {value:g}"
                    for labels, value in samples]
        if not rendered:
            return
        lines.append(f"# HELP repro_{name} {help_text}")
        lines.append(f"# TYPE repro_{name} {kind}")
        lines.extend(rendered)

    metric("kernel_time_us", "gauge", "Kernel clock at scrape time.",
           [("", health.kernel_now_us)])
    metric("kernel_events_total", "counter", "Events the kernel has run.",
           [("", health.events_processed)])
    metric("kernel_pending_events", "gauge", "Events queued in the kernel.",
           [("", health.pending_events)])
    metric("completed_requests_total", "counter",
           "Client requests completed so far.",
           [("", health.completed_requests)])

    def per_replica(getter: Callable, transform=float):
        return [(f'{{replica="{_escape_label(r.name)}"}}',
                 transform(getter(r))) for r in health.replicas]

    metric("replica_active", "gauge", "1 when the replica is running.",
           per_replica(lambda r: 1.0 if r.active else 0.0))
    metric("replica_view", "gauge", "Current view number.",
           per_replica(lambda r: r.view))
    metric("replica_last_executed", "gauge", "Highest executed sequence.",
           per_replica(lambda r: r.last_executed))
    metric("replica_checkpoint_lag", "gauge",
           "Sequences past the stable checkpoint.",
           per_replica(lambda r: r.checkpoint_lag))
    metric("replica_pending_requests", "gauge",
           "Client requests queued for sequencing.",
           per_replica(lambda r: r.pending_requests))
    metric("replica_worker_queue", "gauge", "Jobs queued for worker threads.",
           per_replica(lambda r: r.worker_queue))
    metric("replica_messages_total", "counter",
           "Protocol messages processed.",
           per_replica(lambda r: r.messages_processed))
    metric("replica_batches_executed_total", "counter", "Batches executed.",
           per_replica(lambda r: r.batches_executed))
    metric("replica_trusted_accesses_total", "counter",
           "Trusted component accesses.",
           per_replica(lambda r: r.trusted_accesses))
    metric("replica_verify_hit_rate", "gauge",
           "Signature verify-cache hit rate.",
           per_replica(lambda r: r.verify_hit_rate))

    if trace_counts:
        metric("trace_events_total", "counter",
               "Trace events recorded, by kind.",
               [(f'{{kind="{_escape_label(kind)}"}}', count)
                for kind, count in sorted(trace_counts.items())])

    if span_summary is not None:
        metric("span_requests_total", "counter",
               "Client requests observed in the trace.",
               [("", span_summary.requests)])
        metric("span_complete_total", "counter",
               "Requests that reconstructed into complete spans.",
               [("", span_summary.complete)])
        metric("span_completeness", "gauge",
               "Fraction of observed requests with complete spans.",
               [("", span_summary.completeness)])
        samples = []
        for phase, stats in sorted(span_summary.phases.items()):
            for quantile in ("p50", "p99"):
                samples.append((
                    f'{{phase="{_escape_label(phase)}",'
                    f'quantile="{quantile}"}}', stats[quantile]))
        metric("span_phase_us", "gauge",
               "Per-phase request latency decomposition (microseconds).",
               samples)

    return "\n".join(lines) + "\n"


def deployment_metrics_renderer(deployment) -> Callable[[], str]:
    """A scrape renderer bound to a (plain or sharded) deployment.

    Span reconstruction runs per scrape — scrapes are rare (seconds apart)
    and read-only, so recomputing beats maintaining incremental state on
    the hot path.
    """
    from .spans import analyze_events
    from .watchdog import deployment_health

    def render() -> str:
        tracer = deployment.tracer
        return prometheus_text(
            deployment_health(deployment),
            trace_counts=dict(tracer.counts) if tracer is not None else None,
            span_summary=(analyze_events(tracer)
                          if tracer is not None else None))

    return render


class MetricsExporter:
    """Serve ``render()`` over HTTP from the live kernel's event loop.

    A deliberately minimal HTTP/1.0-style responder: every connection gets
    one ``200 text/plain`` response carrying the current scrape, then the
    connection closes — which is all a Prometheus scraper (or ``curl``)
    needs, with no web framework in sight.
    """

    def __init__(self, kernel: "AsyncioKernel", render: Callable[[], str],
                 port: int = 0, host: str = "127.0.0.1") -> None:
        self._kernel = kernel
        self._render = render
        self._requested_port = port
        self._host = host
        self._server: Optional[asyncio.AbstractServer] = None
        self._task: Optional[asyncio.Task] = None
        self.port: Optional[int] = None
        self.scrapes = 0

    def start(self) -> None:
        """Create the server task on the kernel's loop (bound once it runs)."""
        if self._task is None:
            self._task = self._kernel.loop.create_task(
                self._serve(), name="metrics-exporter")

    async def _serve(self) -> None:
        # Imported here, not at module top: ``import repro`` loads this
        # module, and the simulator path must not pay for asyncio.
        import asyncio

        try:
            self._server = await asyncio.start_server(
                self._handle, host=self._host, port=self._requested_port)
        except BaseException as exc:  # noqa: BLE001 — surfaced via the kernel
            self._kernel.fail(exc)
            return
        self.port = self._server.sockets[0].getsockname()[1]
        async with self._server:
            await self._server.serve_forever()

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        import asyncio

        try:
            # Consume the request head; the path is irrelevant — every
            # scrape gets the full exposition.
            while (await reader.readline()).strip():
                pass
            body = self._render().encode("utf-8")
            writer.write(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: text/plain; version=0.0.4; "
                b"charset=utf-8\r\n"
                b"Content-Length: " + str(len(body)).encode("ascii")
                + b"\r\nConnection: close\r\n\r\n" + body)
            await writer.drain()
            self.scrapes += 1
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # a dropped scraper is its problem, not the run's
        finally:
            writer.close()

    def stop(self) -> list[asyncio.Task]:
        """Cancel the server task; returns it for teardown awaiting."""
        tasks = []
        if self._task is not None:
            self._task.cancel()
            tasks.append(self._task)
            self._task = None
        self._server = None
        return tasks


def write_health_jsonl(samples: Iterable[dict], path: str) -> int:
    """Write health samples as JSON lines; returns the count written."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for sample in samples:
            handle.write(json.dumps(sample, sort_keys=True))
            handle.write("\n")
            count += 1
    return count

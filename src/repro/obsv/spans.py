"""Per-request lifecycle spans reconstructed from a request-keyed trace.

A traced run (``ObservabilityConfig(trace=True)``) records a request's life
at every node it touches: the client's ``req.submit``, the primary's
``msg.recv`` and ``msg.verified`` of the request, ``batch.propose`` /
``batch.execute`` / ``req.reply`` at the replicas, and the client's
``req.complete``.  :func:`reconstruct_spans` folds those events — from a
live :class:`~repro.obsv.trace.Tracer` ring or a JSONL export — back into
one :class:`RequestSpan` per client request, and :func:`summarise_spans`
aggregates them into a four-phase latency decomposition (network /
queueing / crypto / execution) with p50/p99 per phase.

No event links to another: each is joined by data it carries itself, which
also survives ring eviction and batching (one batch serves many
requests):

* request id: the ``detail`` of ``req.submit``/``req.reply``/
  ``req.complete``, and the ``trace_id`` of every event whose payload
  names the request (its ``msg.recv`` and ``msg.verified``),
* ``req.reply`` carries the sequence number the request was ordered at
  (request id → seq),
* ``batch.execute`` carries that seq plus the batch digest prefix
  (seq → digest), and
* ``batch.propose`` carries the digest prefix (digest → sequencing time),

so a span survives even when its request shared a batch with ninety-nine
others.  Phases:

========== ==============================================================
phase      measured as
========== ==============================================================
network    (first ``msg.recv`` of the request − submit)
           + (complete − first ``req.reply``)
queueing   ``batch.propose`` − first ``msg.recv`` (wait before sequencing)
crypto     ``dur_us`` of the request's first ``msg.verified`` (inbound
           verification of the client request)
execution  ``dur_us`` of the matched ``batch.execute``
========== ==============================================================

A span is **complete** when its submit, reply and complete timestamps are
all present; the completeness fraction is the live-smoke acceptance gate
(≥ 95% of client requests must reconstruct end-to-end).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

from .trace import TraceEvent, read_jsonl

#: phases of the latency decomposition, in presentation order.
PHASES = ("network", "queueing", "crypto", "execution", "total")


@dataclass(frozen=True, slots=True)
class RequestSpan:
    """One client request's reconstructed lifecycle."""

    request_id: str
    client: str
    seq: int = -1
    submit_us: Optional[float] = None
    recv_us: Optional[float] = None
    propose_us: Optional[float] = None
    reply_us: Optional[float] = None
    complete_us: Optional[float] = None
    crypto_us: Optional[float] = None
    execution_us: Optional[float] = None

    @property
    def complete(self) -> bool:
        """Did the request reconstruct end-to-end (submit → reply → done)?"""
        return (self.submit_us is not None and self.reply_us is not None
                and self.complete_us is not None)

    @property
    def total_us(self) -> Optional[float]:
        if self.submit_us is None or self.complete_us is None:
            return None
        return self.complete_us - self.submit_us

    @property
    def network_us(self) -> Optional[float]:
        """Transit time: request to the primary plus reply back."""
        if (self.recv_us is None or self.submit_us is None
                or self.complete_us is None or self.reply_us is None):
            return None
        return ((self.recv_us - self.submit_us)
                + (self.complete_us - self.reply_us))

    @property
    def queueing_us(self) -> Optional[float]:
        """Wait at the primary between arrival and batch sequencing."""
        if self.propose_us is None or self.recv_us is None:
            return None
        return max(0.0, self.propose_us - self.recv_us)

    def phase_us(self, phase: str) -> Optional[float]:
        """The named phase's duration (``None`` when unreconstructed)."""
        return getattr(self, f"{phase}_us")


def percentile(values: list, fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sorted-or-not value list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


@dataclass(frozen=True)
class SpanSummary:
    """Aggregate of many request spans: completeness plus phase latencies."""

    requests: int
    complete: int
    #: per-phase ``{"p50": ..., "p99": ..., "mean": ...}`` in microseconds,
    #: present only for phases at least one span reconstructed.
    phases: dict

    @property
    def completeness(self) -> float:
        """Fraction of observed requests that reconstructed end-to-end."""
        return self.complete / self.requests if self.requests else 0.0

    def as_row(self) -> dict:
        """Flat columns for matrix cell payloads and CSV collation."""
        row = {
            "span_requests": self.requests,
            "span_complete": self.complete,
            "span_completeness": round(self.completeness, 4),
        }
        for phase in PHASES:
            stats = self.phases.get(phase)
            if stats is None:
                continue
            row[f"span_{phase}_p50_us"] = round(stats["p50"], 1)
            row[f"span_{phase}_p99_us"] = round(stats["p99"], 1)
        return row

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "complete": self.complete,
            "completeness": round(self.completeness, 4),
            "phases": {phase: {key: round(value, 3)
                               for key, value in stats.items()}
                       for phase, stats in self.phases.items()},
        }


def reconstruct_spans(events: Iterable[TraceEvent]) -> list[RequestSpan]:
    """Fold trace events back into one span per observed client request.

    Requests are *observed* via their ``req.submit`` event; partial chains
    (evicted rings, runs stopped mid-flight) produce incomplete spans rather
    than being dropped, so completeness is measurable.
    """
    submits: dict[str, TraceEvent] = {}
    first_recv: dict[str, float] = {}
    first_verified: dict[str, float] = {}
    first_reply: dict[str, TraceEvent] = {}
    first_complete: dict[str, float] = {}
    execute_by_seq: dict[int, TraceEvent] = {}
    propose_by_digest: dict[str, float] = {}

    for event in events:
        kind = event.kind
        if kind == "req.submit":
            submits.setdefault(event.detail, event)
        elif kind == "req.reply":
            if event.detail not in first_reply:
                first_reply[event.detail] = event
        elif kind == "req.complete":
            first_complete.setdefault(event.detail, event.time_us)
        elif kind == "msg.recv":
            if (event.detail == "ClientRequest" and event.trace_id
                    and event.trace_id not in first_recv):
                first_recv[event.trace_id] = event.time_us
        elif kind == "msg.verified":
            if event.trace_id and event.trace_id not in first_verified:
                first_verified[event.trace_id] = event.dur_us
        elif kind == "batch.execute":
            if event.seq not in execute_by_seq:
                execute_by_seq[event.seq] = event
        elif kind == "batch.propose":
            propose_by_digest.setdefault(event.detail, event.time_us)

    spans = []
    for rid, submit in submits.items():
        reply = first_reply.get(rid)
        seq = reply.seq if reply is not None else -1
        execution_us = None
        propose_us = None
        executed = execute_by_seq.get(seq)
        if executed is not None:
            execution_us = executed.dur_us
            propose_us = propose_by_digest.get(executed.detail)
        spans.append(RequestSpan(
            request_id=rid,
            client=submit.node,
            seq=seq,
            submit_us=submit.time_us,
            recv_us=first_recv.get(rid),
            propose_us=propose_us,
            reply_us=reply.time_us if reply is not None else None,
            complete_us=first_complete.get(rid),
            crypto_us=first_verified.get(rid),
            execution_us=execution_us,
        ))
    spans.sort(key=lambda span: (span.submit_us, span.request_id))
    return spans


def summarise_spans(spans: Iterable[RequestSpan]) -> SpanSummary:
    """Aggregate spans into completeness plus per-phase p50/p99/mean."""
    spans = list(spans)
    phases: dict = {}
    for phase in PHASES:
        values = [value for span in spans
                  if (value := span.phase_us(phase)) is not None]
        if not values:
            continue
        phases[phase] = {
            "p50": percentile(values, 0.50),
            "p99": percentile(values, 0.99),
            "mean": sum(values) / len(values),
            "count": len(values),
        }
    return SpanSummary(
        requests=len(spans),
        complete=sum(1 for span in spans if span.complete),
        phases=phases,
    )


def analyze_events(events: Iterable[TraceEvent]) -> SpanSummary:
    """Reconstruct and summarise in one call (tracer rings, event lists)."""
    return summarise_spans(reconstruct_spans(events))


def analyze_file(path: str) -> SpanSummary:
    """Summarise a JSONL trace export (``repro trace analyze FILE``)."""
    return analyze_events(read_jsonl(path))


def format_summary(summary: SpanSummary) -> str:
    """Human-readable latency decomposition (the CLI's output)."""
    lines = [
        f"requests observed : {summary.requests}",
        f"complete spans    : {summary.complete} "
        f"({summary.completeness * 100.0:.1f}%)",
    ]
    if summary.phases:
        lines.append("")
        lines.append(f"{'phase':<10} {'p50 (us)':>12} {'p99 (us)':>12} "
                     f"{'mean (us)':>12} {'spans':>7}")
        for phase in PHASES:
            stats = summary.phases.get(phase)
            if stats is None:
                continue
            lines.append(f"{phase:<10} {stats['p50']:>12.1f} "
                         f"{stats['p99']:>12.1f} {stats['mean']:>12.1f} "
                         f"{stats['count']:>7d}")
    return "\n".join(lines)

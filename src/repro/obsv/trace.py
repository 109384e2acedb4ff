"""Low-overhead structured tracing: a bounded ring buffer of typed events.

A :class:`Tracer` timestamps every event off the deployment's kernel clock
and appends it to a fixed-capacity ring (oldest events are evicted, never
blocked on), so tracing a live run costs one deque append per event and can
be left on for the whole run.  Per-kind counters survive ring eviction, so
event totals stay exact even when the ring wraps.

Tracing is **off by default** and the disabled path allocates nothing: every
hook site in the kernel, transport and protocol layers reads its ``_tracer``
attribute once and branches on ``is not None`` — no dict, no f-string, no
call — so simulated runs with tracing disabled execute byte-identically to
a build without the hooks (``tests/unit/test_trace_noop_lint.py`` enforces
the guard shape on the AST).

Event kinds (the wire-visible schema; see README "Observability"):

========================= ==================================================
kind                      emitted when
========================= ==================================================
``msg.send``              a payload enters the transport
``msg.drop``              a rule (or missing destination) discarded it
``msg.recv``              the destination's ``receive`` was invoked
``view.change``           a replica voted to replace the primary
``view.installed``        a replica entered a new view
``checkpoint.stable``     a checkpoint reached its ``f+1`` quorum
``replica.crash``         a replica crashed (fault injection or schedule)
``replica.restart``       a seat was rebuilt with a fresh incarnation
``recovery.start``        a rejoining replica began state transfer
``recovery.done``         it caught up and rejoined consensus
``transfer.batch``        a state-transfer fill batch was applied
``tcp.connect``           a TCP sender connected to the transport's port
``tcp.accept``            the transport's server took a peer connection
``kernel.run``            a kernel run started
``kernel.stop``           it stopped (cap, stop condition, or idle)
``kernel.error``          a fatal error was recorded on the live kernel
``req.submit``            a client signed and sent a request
``req.reply``             a replica built the reply for one request
``req.complete``          the client accepted a reply certificate
``msg.verified``          a replica finished inbound verification
``batch.propose``         the primary sequenced a batch
``batch.execute``         a replica executed a committed batch
========================= ==================================================

Trace ids: an event that belongs to one client request carries that
request's id (``str(RequestId)``) as its ``trace_id``.  The ``req.*``
events name their request, and so do the ``msg.recv`` and
``msg.verified`` of a payload with a ``request_id`` (a client request, a
reply, a commit certificate or acknowledgement); every other event has an
empty id.  Each id comes from data the recording site already holds, so
nothing travels between hops for the trace's sake — not in process and not
on the wire.  :mod:`repro.obsv.spans` joins the rest of a request's
lifecycle by seq and batch digest.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Iterator, Optional

if TYPE_CHECKING:
    from ..kernel import Kernel

#: default ring capacity; at protocol message rates this holds the last few
#: seconds of a live run, which is what a stall post-mortem needs.
DEFAULT_TRACE_CAPACITY = 65_536


@dataclass(slots=True)
class TraceEvent:
    """One traced occurrence: kernel timestamp, kind, and typed context.

    ``trace_id`` is the id of the client request the event belongs to, or
    empty (see the module doc).  ``dur_us`` carries the modelled cost of
    the work the event marks (verification, execution) when one is known.

    Unfrozen on purpose: the tracer appends one of these per message on
    the traced hot path, and frozen-dataclass construction costs an
    ``object.__setattr__`` per field.  Nothing mutates an event after it
    enters the ring.
    """

    time_us: float
    kind: str
    node: str = ""
    detail: str = ""
    seq: int = -1
    view: int = -1
    trace_id: str = ""
    dur_us: float = 0.0

    def as_dict(self) -> dict:
        """JSON-serialisable form (used by the JSONL export)."""
        return asdict(self)


def request_trace_id(payload: object) -> str:
    """The trace id of a message: its ``request_id`` as a string, else ``""``."""
    request_id = getattr(payload, "request_id", None)
    return "" if request_id is None else str(request_id)


class Tracer:
    """Bounded ring buffer of trace events, clocked by one kernel.

    The ring stores each event as a plain tuple (field order matches
    :class:`TraceEvent`) and materializes :class:`TraceEvent` objects only
    on the read paths (:meth:`events`, iteration, export).  Recording is
    the traced hot path — one tuple pack, one deque append, one counter
    bump per event — which is what keeps the overhead gate in
    ``benchmarks/test_obsv_overhead.py`` honest.
    """

    def __init__(self, kernel: "Kernel",
                 capacity: int = DEFAULT_TRACE_CAPACITY) -> None:
        self._kernel = kernel
        self.capacity = capacity
        self._events: deque[tuple] = deque(maxlen=capacity)
        #: exact per-kind totals, unaffected by ring eviction.
        self.counts: dict[str, int] = {}

    # ------------------------------------------------------------- recording
    def record(self, kind: str, node: str = "", detail: str = "",
               seq: int = -1, view: int = -1, dur_us: float = 0.0,
               trace_id: str = "") -> None:
        """Append one event stamped with the kernel's current time."""
        self._events.append((self._kernel.now, kind, node, detail, seq, view,
                             trace_id, dur_us))
        self.counts[kind] = self.counts.get(kind, 0) + 1

    # ------------------------------------------------------------ inspection
    def __len__(self) -> int:
        return len(self._events)

    @property
    def total(self) -> int:
        """Events recorded, retained or not."""
        return sum(self.counts.values())

    @property
    def dropped(self) -> int:
        """Events evicted from the ring (recorded but no longer retained)."""
        return self.total - len(self._events)

    def events(self, kind: Optional[str] = None,
               node: Optional[str] = None) -> list[TraceEvent]:
        """Retained events, optionally filtered by kind and/or node."""
        return [TraceEvent(*entry) for entry in self._events
                if (kind is None or entry[1] == kind)
                and (node is None or entry[2] == node)]

    def __iter__(self) -> Iterator[TraceEvent]:
        return (TraceEvent(*entry) for entry in self._events)

    def tail(self, count: int = 200) -> list[dict]:
        """The newest ``count`` retained events as dicts (diagnostics)."""
        if count <= 0:
            return []
        return [TraceEvent(*entry).as_dict()
                for entry in list(self._events)[-count:]]

    # --------------------------------------------------------------- export
    def write_jsonl(self, path: str) -> int:
        """Write retained events as JSON lines; returns the count written."""
        with open(path, "w", encoding="utf-8") as handle:
            for entry in self._events:
                handle.write(json.dumps(TraceEvent(*entry).as_dict(),
                                        sort_keys=True))
                handle.write("\n")
        return len(self._events)


#: TraceEvent field names, for filtering foreign keys out of imported lines.
_EVENT_FIELDS = frozenset(TraceEvent.__dataclass_fields__)


def read_jsonl(path: str) -> list[TraceEvent]:
    """Load events written by :meth:`Tracer.write_jsonl` (blank lines and
    unknown keys are tolerated, so older exports load under newer schemas)."""
    events: list[TraceEvent] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            events.append(TraceEvent(**{key: value
                                        for key, value in record.items()
                                        if key in _EVENT_FIELDS}))
    return events

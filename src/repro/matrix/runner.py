"""Fan-out across cells with per-cell resumable results.

``MatrixRunner.run(cells)`` runs each cell's deployment (to a completion
target, over a fault schedule's horizon, or under an open-loop arrival
engine) and, when a results directory is configured, persists one JSON file
per cell named by its content hash (``results/<hash>.json``).  On a re-run
every cell whose hash already has a valid result file is *resumed* — its
stored rows are returned without building anything — so an interrupted or
repeated matrix run only pays for cells whose configuration actually
changed.  A result file that fails to parse, or whose recorded hash
disagrees with its cell, is treated as absent and that one cell re-runs.

Realtime cells (live / live-tcp backends) get the same treatment the
``repro live`` command applies: every client reply is HMAC-verified while
the run is in flight, and a run that completes zero requests or verifies
zero replies is an error, not a data point.  Simulated cells additionally
record a determinism digest of their row, so two result directories of the
same matrix can be compared cell by cell.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

from ..common.errors import ConfigurationError
from ..common.jsonhash import json_digest
from ..workload.openloop import run_open_loop
from .cell import Cell

#: payload schema version of the per-cell result files.
RESULT_VERSION = 1


@dataclass(frozen=True)
class CellOutcome:
    """One cell's result: its row, where it came from, and its payload."""

    cell: Cell
    row: dict
    #: True when the row was loaded from an existing result file.
    resumed: bool
    #: result file path (``None`` when the runner persists nothing).
    path: Optional[str]
    payload: dict


@dataclass
class MatrixRunResult:
    """Every outcome of one ``MatrixRunner.run`` call."""

    outcomes: list[CellOutcome] = field(default_factory=list)

    def __iter__(self) -> Iterator[CellOutcome]:
        return iter(self.outcomes)

    def __len__(self) -> int:
        return len(self.outcomes)

    @property
    def rows(self) -> list[dict]:
        """Every outcome's row, each after its rate-segment rows if any."""
        return [row for outcome in self.outcomes
                for row in (*outcome.payload.get("segment_rows", ()),
                            outcome.row)]

    @property
    def executed(self) -> int:
        """Cells actually built and run (not resumed)."""
        return sum(1 for outcome in self.outcomes if not outcome.resumed)

    @property
    def resumed(self) -> int:
        """Cells whose stored result was reused."""
        return sum(1 for outcome in self.outcomes if outcome.resumed)


class MatrixRunner:
    """Runs cells, resuming any whose content hash already has a result."""

    def __init__(self, results_dir: Optional[str] = None,
                 log: Optional[Callable[[str], None]] = None) -> None:
        self.results_dir = results_dir
        self._log = log or (lambda message: None)

    # ------------------------------------------------------------- results
    def result_path(self, cell: Cell) -> Optional[str]:
        if self.results_dir is None:
            return None
        return os.path.join(self.results_dir, f"{cell.content_hash}.json")

    def _load(self, cell: Cell, path: Optional[str]) -> Optional[dict]:
        """A valid stored payload for ``cell``, or ``None``.

        Corruption (unparseable JSON, a hash that disagrees with the file
        name, a missing row) invalidates only this cell: it re-runs and the
        file is rewritten.
        """
        if path is None or not os.path.exists(path):
            return None
        try:
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return None
        if (not isinstance(payload, dict)
                or payload.get("cell_hash") != cell.content_hash
                or not isinstance(payload.get("row"), dict)):
            return None
        return payload

    def _store(self, path: str, payload: dict) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        tmp_path = f"{path}.tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True, default=str)
            handle.write("\n")
        os.replace(tmp_path, path)  # a reader never sees a half-written file

    # ------------------------------------------------------------- running
    def run(self, cells: Sequence[Cell]) -> MatrixRunResult:
        result = MatrixRunResult()
        for cell in cells:
            path = self.result_path(cell)
            stored = self._load(cell, path)
            if stored is not None:
                self._log(f"resume  {cell.label} [{cell.content_hash}]")
                result.outcomes.append(CellOutcome(
                    cell=cell, row=stored["row"], resumed=True, path=path,
                    payload=stored))
                continue
            self._log(f"run     {cell.label} [{cell.content_hash}]")
            payload = self.run_cell(cell)
            if path is not None:
                self._store(path, payload)
            result.outcomes.append(CellOutcome(
                cell=cell, row=payload["row"], resumed=False, path=path,
                payload=payload))
        return result

    def run_cell(self, cell: Cell) -> dict:
        """Build, run and measure one cell, returning its result payload."""
        started = time.perf_counter()
        verifier = None
        with cell.spec.build() as deployment:
            if cell.realtime:
                from ..realtime import ReplyVerifier

                verifier = ReplyVerifier(deployment)
            engine = None
            horizon_us = cell.fixed_horizon_us
            if cell.spec.open_loop is not None:
                engine, run_result = run_open_loop(deployment,
                                                   cell.spec.open_loop)
            elif horizon_us is None:
                run_result = deployment.run_until_target()
            else:
                if not cell.realtime:
                    # run_for on the simulator assumes the scenario starts
                    # its own load (the live path starts clients itself).
                    deployment.start_clients()
                run_result = deployment.run_for(horizon_us)
            row = cell.row(run_result, deployment, engine)
        wall_seconds = time.perf_counter() - started
        if cell.realtime:
            if row.get("completed_requests", 0) == 0:
                raise ConfigurationError(
                    f"live cell {cell.label} [{cell.content_hash}] completed "
                    "no requests before its wall-clock cap")
            if verifier is not None and verifier.verified == 0:
                raise ConfigurationError(
                    f"live cell {cell.label} [{cell.content_hash}] verified "
                    "no client replies")
        payload = {
            "version": RESULT_VERSION,
            "cell_hash": cell.content_hash,
            "label": cell.label,
            "protocol": cell.protocol,
            "backend": cell.backend,
            "axes": dict(cell.axes),
            "row": row,
            "wall_seconds": round(wall_seconds, 4),
            "events": int(row.get("events", 0) or 0),
            "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            # Simulated rows are a pure function of the spec, so their
            # digest is a determinism check; realtime rows are wall-clock
            # measurements and carry no digest.
            "row_digest": "" if cell.realtime else json_digest(row),
        }
        if engine is not None and engine.config.segments:
            payload["segment_rows"] = [
                {**segment, "backend": cell.backend,
                 "cell": cell.content_hash}
                for segment in engine.stats.segment_rows]
        if verifier is not None:
            payload["replies_verified"] = verifier.verified
        if deployment.tracer is not None:
            # Span aggregates live in the payload, not the row: simulated
            # row digests must not depend on whether tracing was on.
            from ..obsv.spans import analyze_events

            payload["span_summary"] = analyze_events(
                deployment.tracer).as_row()
        return payload

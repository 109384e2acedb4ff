"""One fully-resolved experiment point: a spec plus its plotted axes.

A :class:`Cell` is the unit the matrix engine fans out over, resumes and
collates.  It wraps a fully-resolved :class:`~repro.runtime.spec.DeploymentSpec`
(which already names protocol, backend, sizing, sharding and fault schedule)
and adds the two things the spec does not carry:

* ``axes`` — the plotted coordinates of the point (``clients``,
  ``batch_size``, ``f``, ``shards``, ``fault`` ...), which become leading row
  columns and curve x-values;
* ``label`` — a short human-readable name for tables and logs.

Identity is *content*: ``cell.content_hash`` is exactly
:meth:`DeploymentSpec.cell_hash`, the sorted-key JSON digest of the
resolved spec.  Axes and labels are derived presentation — two cells whose
specs resolve identically are the same experiment no matter how they were
labelled, which is what makes result files resumable and matrices
deduplicatable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..backends import resolve_backend
from ..common.errors import ConfigurationError
from ..recovery.analysis import timeline_columns
from ..runtime.spec import DeploymentSpec


@dataclass(frozen=True, eq=False)
class Cell:
    """A fully-resolved experiment point (spec + axes + label)."""

    #: everything needed to build and run the deployment, on any backend.
    spec: DeploymentSpec
    #: plotted coordinates of this point, in display order.
    axes: Mapping[str, object] = field(default_factory=dict)
    #: short human-readable name (defaults to ``protocol/backend[/axes]``).
    label: str = ""

    def __post_init__(self) -> None:
        if not self.label:
            parts = [self.protocol, self.backend]
            parts.extend(f"{key}={value}" for key, value in self.axes.items())
            object.__setattr__(self, "label", "/".join(parts))

    # ------------------------------------------------------------- identity
    @property
    def content_hash(self) -> str:
        """Content hash of the resolved spec (== ``spec.cell_hash()``)."""
        return self.spec.cell_hash()

    @property
    def protocol(self) -> str:
        return self.spec.config.protocol

    @property
    def backend(self) -> str:
        """Resolved backend name (``sim`` / ``live`` / ``live-tcp``)."""
        return resolve_backend(self.spec.backend).name

    @property
    def realtime(self) -> bool:
        """Whether this cell runs on a wall-clock backend."""
        return resolve_backend(self.spec.backend).realtime

    @property
    def fixed_horizon_us(self):
        """Fixed run horizon for fault-schedule cells (else ``None``).

        A cell with a fault schedule must outlive its crash/restart timeline
        even though throughput dips while it plays out, so it runs for its
        configured time cap instead of a completion target.  The horizon
        lives in ``config.experiment.max_sim_time_us`` — part of the hashed
        spec — so two cells that run for different horizons are different
        cells.
        """
        if self.spec.fault_schedule is None and not self.spec.fault_schedules:
            return None
        return self.spec.config.experiment.max_sim_time_us

    # ---------------------------------------------------------------- rows
    def row(self, result, deployment, engine=None) -> dict:
        """Flat result row for this cell: protocol, axes, measurements.

        Column layout matches the historical ``figure*`` rows (protocol
        first, then the plotted axes, then the measurement columns) so
        existing table consumers keep working; an open-loop ``engine``
        adds its columns, and a plain spec's fault schedule adds
        :func:`~repro.recovery.analysis.timeline_columns` of the finished
        ``deployment``; the trailing ``backend`` and ``cell`` columns tie
        every row back to its backend and its result file.
        """
        row = {"protocol": self.protocol}
        row.update(self.axes)
        row.update(result.as_row())
        if engine is not None:
            row.update(engine.row_columns(result, deployment))
        if self.spec.fault_schedule is not None:
            row.update(timeline_columns(deployment, self.spec.fault_schedule,
                                        self.fixed_horizon_us))
        row["backend"] = self.backend
        row["cell"] = self.content_hash
        return row

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<Cell {self.label} {self.content_hash}>"


def unique_cells(name: str, cells: list[Cell]) -> list[Cell]:
    """``cells`` unchanged, refused if two resolve to the same deployment.

    Two such cells would silently share one result file; within one spec it
    is an axis combination too many, across a named matrix's specs one
    member too many.
    """
    seen: dict[str, str] = {}
    for cell in cells:
        content_hash = cell.content_hash
        if content_hash in seen:
            raise ConfigurationError(
                f"matrix {name!r}: cells {seen[content_hash]!r} and "
                f"{cell.label!r} resolve to the same deployment "
                f"({content_hash})")
        seen[content_hash] = cell.label
    return cells

"""Experiment-matrix engine: content-hashed cells, resumable fan-out, curves.

The matrix layer turns one-off experiment runs into a systematic engine:

* :class:`~repro.matrix.cell.Cell` — one fully-resolved experiment point
  (a :class:`~repro.runtime.spec.DeploymentSpec` plus its plotted axes),
  identified by the content hash of its canonical description;
* :class:`~repro.matrix.spec.MatrixSpec` — declarative axis lists
  (protocol × backend × clients × batch size × fault plan, at one scale)
  expanded into the validated, duplicate-free cell product;
* :class:`~repro.matrix.runner.MatrixRunner` — fan-out over cells with
  per-cell resumable results (``results/<hash>.json``); unchanged cells
  are skipped on re-run;
* :mod:`~repro.matrix.collate` — figure-6-style latency/throughput curve
  tables on both the substrate and wall-clock time bases;
* :data:`~repro.matrix.registry.MATRICES` — the committed named matrices
  behind ``repro matrix run/list/collate``.
"""

from .cell import Cell
from .collate import (
    CurvePoint,
    CurveSeries,
    collate_curves,
    collate_payloads,
    load_results,
    write_curves_csv,
)
from .registry import MATRICES, matrix_cells
from .runner import CellOutcome, MatrixRunner, MatrixRunResult
from .spec import FaultPlan, MatrixSpec

__all__ = [
    "Cell",
    "CellOutcome",
    "CurvePoint",
    "CurveSeries",
    "FaultPlan",
    "MATRICES",
    "MatrixRunResult",
    "MatrixRunner",
    "MatrixSpec",
    "collate_curves",
    "collate_payloads",
    "load_results",
    "matrix_cells",
    "write_curves_csv",
]

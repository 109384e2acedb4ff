"""Collate cell results into figure-6-style latency/throughput curves.

The paper's headline figures plot one curve per protocol: offered load (or
batch size, or f) on the x-axis, throughput and latency on the y-axes.
:func:`collate_curves` groups rows by ``(protocol, backend)``, orders each
group by the chosen axis column, and emits a :class:`CurveSeries` whose
points carry *both* time bases:

* ``throughput_tx_s`` / ``*_latency_ms`` — the substrate clock: simulated
  time on the ``sim`` backend, wall-clock on the live backends (they are
  the same clock there);
* ``wall_tx_s`` — completed requests divided by the cell's measured
  wall-clock runtime, populated when the rows came from persisted cell
  payloads (which record ``wall_seconds``).

So every curve reads on the simulated axis *and* the wall-clock axis, and a
simulated and a live run of the same matrix produce directly comparable
tables.  :func:`write_curves_csv` flattens the series into one CSV for
artifact upload.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from typing import Iterable, Optional

#: row columns every curve point carries when present.
_MEASUREMENTS = ("throughput_tx_s", "aggregate_throughput_tx_s",
                 "mean_latency_ms", "p50_latency_ms", "p99_latency_ms",
                 "completed_requests")


@dataclass(frozen=True)
class CurvePoint:
    """One (x, measurements) point of a curve."""

    x: object
    columns: dict

    def as_row(self) -> dict:
        row = {"x": self.x}
        row.update(self.columns)
        return row


@dataclass(frozen=True)
class CurveSeries:
    """One protocol's curve on one backend along one axis."""

    protocol: str
    backend: str
    axis: str
    points: tuple[CurvePoint, ...]

    def as_rows(self) -> list[dict]:
        """Flat rows (one per point) for tables and CSV export."""
        rows = []
        for point in self.points:
            row = {"protocol": self.protocol, "backend": self.backend,
                   self.axis: point.x}
            row.update(point.columns)
            rows.append(row)
        return rows


def _sort_key(value) -> tuple:
    # Numeric x-values sort numerically, anything else lexically after them.
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return (0, float(value), "")
    return (1, 0.0, str(value))


def collate_curves(rows: Iterable[dict], axis: str = "clients",
                   wall_seconds: Optional[dict] = None) -> list[CurveSeries]:
    """Group rows into per-(protocol, backend) curves along ``axis``.

    ``wall_seconds`` optionally maps a row's ``cell`` hash to its measured
    wall-clock runtime (as recorded in the result payloads); when available
    each point gains ``wall_tx_s``.  Rows without the axis column are
    skipped — a matrix can mix swept and fixed cells and still collate.
    """
    groups: dict[tuple[str, str], list[dict]] = {}
    for row in rows:
        if axis not in row:
            continue
        key = (str(row.get("protocol", "?")), str(row.get("backend", "sim")))
        groups.setdefault(key, []).append(row)
    series: list[CurveSeries] = []
    for (protocol, backend), group in sorted(groups.items()):
        points = []
        for row in sorted(group, key=lambda r: _sort_key(r[axis])):
            columns = {name: row[name] for name in _MEASUREMENTS
                       if name in row}
            # Traced cells fold their span latency decomposition in; the
            # columns are dynamic (one pair per reconstructed phase).
            columns.update({name: value for name, value in row.items()
                            if name.startswith("span_")})
            seconds = (wall_seconds or {}).get(row.get("cell"))
            if seconds:
                columns["wall_tx_s"] = round(
                    row.get("completed_requests", 0) / seconds, 1)
            points.append(CurvePoint(x=row[axis], columns=columns))
        series.append(CurveSeries(protocol=protocol, backend=backend,
                                  axis=axis, points=tuple(points)))
    return series


def collate_payloads(payloads: Iterable[dict],
                     axis: str = "clients") -> list[CurveSeries]:
    """Collate persisted cell payloads (``results/<hash>.json`` contents)."""
    payloads = list(payloads)
    rows = []
    for payload in payloads:
        row = payload.get("row")
        if not isinstance(row, dict):
            continue
        span_summary = payload.get("span_summary")
        if isinstance(span_summary, dict):
            # Payload-only span columns join the row for collation (they
            # stay out of the stored row and its determinism digest).
            row = {**row, **span_summary}
        rows.append(row)
    wall = {payload.get("cell_hash"): payload.get("wall_seconds")
            for payload in payloads}
    return collate_curves(rows, axis=axis, wall_seconds=wall)


def load_results(results_dir: str) -> list[dict]:
    """Read every valid cell payload under ``results_dir`` (sorted)."""
    import json

    payloads = []
    if not os.path.isdir(results_dir):
        return payloads
    for name in sorted(os.listdir(results_dir)):
        if not name.endswith(".json"):
            continue
        try:
            with open(os.path.join(results_dir, name), encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            continue
        if isinstance(payload, dict) and "cell_hash" in payload:
            payloads.append(payload)
    return payloads


def write_curves_csv(series: Iterable[CurveSeries], path: str) -> int:
    """Write every series' points into one CSV; returns the row count."""
    series = list(series)
    rows = [row for one in series for row in one.as_rows()]
    fieldnames: list[str] = []
    for row in rows:
        for key in row:
            if key not in fieldnames:
                fieldnames.append(key)
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
    return len(rows)

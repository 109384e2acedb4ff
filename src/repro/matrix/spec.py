"""Axis lists and their expansion into the cell product.

A :class:`MatrixSpec` names one experiment matrix declaratively: lists of
axis values (protocol × backend × client count × batch size × fault plan)
plus the sizing scale they apply to.  ``cells()`` expands the product into
fully-resolved :class:`~repro.matrix.cell.Cell` objects, validating every
axis value against the live registries up front (unknown protocol or
backend names fail before anything runs) and refusing matrices whose
expansion contains duplicate content hashes — two axis combinations that
resolve to the same deployment are a specification bug, not two data
points.

Axes left at their default contribute neither product terms nor row
columns, so a matrix that only sweeps clients produces rows whose axis
columns are exactly ``clients`` — the same shape the historical ``figure*``
tables had.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Optional

from ..common.errors import ConfigurationError
from ..backends import resolve_backend
from ..recovery.schedule import FaultPlan
from ..runtime.experiments import SMALL_SCALE, ExperimentScale, build_config
from ..runtime.spec import DeploymentSpec
from .cell import Cell, unique_cells


#: sentinel tuple meaning "axis not swept": contributes no product term and
#: no row column.
_UNSET = (None,)


@dataclass(frozen=True)
class MatrixSpec:
    """Declarative axis lists for one experiment matrix."""

    name: str
    protocols: tuple[str, ...]
    backends: tuple[str, ...] = ("sim",)
    client_counts: tuple[Optional[int], ...] = _UNSET
    batch_sizes: tuple[Optional[int], ...] = _UNSET
    fault_plans: tuple[Optional[FaultPlan], ...] = _UNSET
    #: the one sizing of every cell; live matrices shrink it with
    #: ``replace(SMALL_SCALE, ...)`` so wall-clock matrices stay tractable.
    scale: ExperimentScale = SMALL_SCALE

    def validate(self) -> None:
        """Reject unknown axis values before anything is built or run."""
        from ..protocols.registry import PROTOCOLS

        if not self.protocols:
            raise ConfigurationError(f"matrix {self.name!r} lists no protocols")
        for protocol in self.protocols:
            if protocol not in PROTOCOLS:
                raise ConfigurationError(
                    f"matrix {self.name!r}: unknown protocol {protocol!r}; "
                    f"known protocols: {', '.join(sorted(PROTOCOLS))}")
        for backend in self.backends:
            resolve_backend(backend)  # raises ConfigurationError when unknown
        for axis, values in (("client_counts", self.client_counts),
                             ("batch_sizes", self.batch_sizes)):
            for value in values:
                if value is not None and (not isinstance(value, int) or value <= 0):
                    raise ConfigurationError(
                        f"matrix {self.name!r}: {axis} value {value!r} is not "
                        "a positive integer")

    def cells(self) -> list[Cell]:
        """Expand the axis product into fully-resolved cells."""
        self.validate()
        scale = self.scale
        cells: list[Cell] = []
        for protocol, backend, clients, batch_size, plan in itertools.product(
                self.protocols, self.backends, self.client_counts,
                self.batch_sizes, self.fault_plans):
            config = build_config(protocol, scale, num_clients=clients,
                                  batch_size=batch_size)
            schedule = None
            if plan is not None:
                schedule = plan.schedule(protocol, scale.f)
                config = config.with_updates(experiment=replace(
                    config.experiment,
                    max_sim_time_us=plan.end_s * 1_000_000.0))
            axes: dict[str, object] = {}
            if self.client_counts != _UNSET:
                axes["clients"] = (scale.num_clients if clients is None
                                   else clients)
            if self.batch_sizes != _UNSET:
                axes["batch_size"] = (scale.batch_size if batch_size is None
                                      else batch_size)
            if self.fault_plans != _UNSET:
                axes["fault"] = "none" if plan is None else plan.name
            cells.append(Cell(
                spec=DeploymentSpec(config, backend=backend,
                                    fault_schedule=schedule),
                axes=axes))
        return unique_cells(self.name, cells)

"""Named, committed experiment matrices.

``MATRICES`` maps a CLI-visible name to the :class:`MatrixSpec` group it
expands to (a tuple, so one name can mix a simulated sweep with a live
spot-check).  ``matrix_cells(name)`` concatenates the groups' cells and
re-checks content-hash uniqueness *across* the group — two member specs
that resolve an identical deployment would silently share a result file.

The committed names:

========== =============================================================
``smoke``   2 sim protocols × 2 client counts plus one live-TCP cell —
            the CI ``matrix-smoke`` job's matrix.
``fig6``    Figure 6(i) on the simulator: 3 protocols × 3 client counts.
``live``    the same throughput/latency curve on real sockets
            (``live-tcp``), at the wall-clock-feasible live sizing.
``curves``  ``fig6`` + ``live`` together: the paper's headline curve on
            both time bases in one run.
``faults``  crash → restart cells (the recovery timeline as a fault-plan
            axis) for a sequential vs a FlexiTrust protocol.
========== =============================================================
"""

from __future__ import annotations

from dataclasses import replace

from ..common.errors import ConfigurationError
from ..runtime.experiments import SMALL_SCALE
from .cell import Cell, unique_cells
from .spec import FaultPlan, MatrixSpec

#: live cells run small fixed sizings: the live backends' wall-clock cost is
#: real time (latency sleeps and crypto), so the matrix shrinks the batch
#: counts instead of trusting the simulated-scale knobs to bound it.
_LIVE_SIZING = dict(batch_sizes=(4,), scale=replace(
    SMALL_SCALE, warmup_batches=1, measured_batches=5, max_sim_seconds=30.0))

_SMOKE_SIM = MatrixSpec(
    name="smoke-sim",
    protocols=("minbft", "flexi-bft"),
    client_counts=(20, 40),
    scale=replace(SMALL_SCALE, warmup_batches=2, measured_batches=6))

_SMOKE_LIVE = MatrixSpec(
    name="smoke-live",
    protocols=("flexi-bft",),
    backends=("live-tcp",),
    client_counts=(8,),
    **_LIVE_SIZING)

_FIG6_SIM = MatrixSpec(
    name="fig6-sim",
    protocols=("pbft", "minbft", "flexi-bft"),
    client_counts=(20, 60, 120))

_FIG6_LIVE = MatrixSpec(
    name="fig6-live",
    protocols=("minbft", "flexi-bft"),
    backends=("live-tcp",),
    client_counts=(8, 16, 32),
    **_LIVE_SIZING)

_FAULTS = MatrixSpec(
    name="faults",
    protocols=("minbft", "flexi-bft"),
    client_counts=(12,),
    fault_plans=(FaultPlan("crash-restart", crash_s=0.2, restart_s=0.35,
                           end_s=0.7),))

MATRICES: dict[str, tuple[MatrixSpec, ...]] = {
    "smoke": (_SMOKE_SIM, _SMOKE_LIVE),
    "fig6": (_FIG6_SIM,),
    "live": (_FIG6_LIVE,),
    "curves": (_FIG6_SIM, _FIG6_LIVE),
    "faults": (_FAULTS,),
}


def matrix_cells(name: str) -> list[Cell]:
    """Expand a named matrix, enforcing hash uniqueness across its specs."""
    try:
        specs = MATRICES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown matrix {name!r}; known matrices: "
            f"{', '.join(sorted(MATRICES))}") from None
    return unique_cells(name, [cell for spec in specs
                               for cell in spec.cells()])

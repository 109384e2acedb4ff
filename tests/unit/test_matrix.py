"""Matrix engine unit tests: cell hashing, expansion and collation.

The content hash is the resume key of the whole engine, so most of this
file pins its invariances: spelling a backend differently, passing a
default explicitly, or reordering a dict must never change a hash — while
any change that would change the built deployment always must.
"""

from __future__ import annotations

import pytest

from repro.backends import resolve_backend
from repro.common.errors import ConfigurationError
from repro.matrix import (
    Cell,
    FaultPlan,
    MATRICES,
    MatrixSpec,
    collate_curves,
    collate_payloads,
    matrix_cells,
)
from repro.recovery.schedule import (
    FaultEvent,
    FaultEventKind,
    FaultSchedule,
    crash_at,
)
from repro.runtime import DeploymentSpec, SMALL_SCALE, build_config


def _config(protocol="flexi-bft", **overrides):
    return build_config(protocol, SMALL_SCALE, **overrides)


# --------------------------------------------------------------- invariance
def test_backend_spellings_hash_identically():
    config = _config()
    default = DeploymentSpec(config).cell_hash()
    assert DeploymentSpec(config, backend="sim").cell_hash() == default
    assert DeploymentSpec(config,
                          backend=resolve_backend("sim")).cell_hash() == default
    # Aliases resolve to the canonical backend before hashing.
    assert (DeploymentSpec(config, backend="tcp").cell_hash()
            == DeploymentSpec(config, backend="live-tcp").cell_hash())
    assert (DeploymentSpec(config, backend="asyncio").cell_hash()
            == DeploymentSpec(config, backend="live").cell_hash())


def test_explicit_defaults_hash_identically():
    config = _config()
    default = DeploymentSpec(config).cell_hash()
    explicit = DeploymentSpec(config, backend="sim", num_shards=None,
                              num_clients=None, router_seed=0,
                              fault_schedule=None, fault_schedules={},
                              observe=None)
    assert explicit.cell_hash() == default


def test_observability_does_not_change_the_hash():
    # Tracing observes a run without changing its results (pinned by the
    # obsv_overhead scenario), so toggling it must not invalidate results.
    from repro.obsv import ObservabilityConfig

    config = _config()
    assert (DeploymentSpec(config,
                           observe=ObservabilityConfig(trace=True)).cell_hash()
            == DeploymentSpec(config).cell_hash())


def test_fault_schedules_dict_order_is_canonical():
    config = _config()
    one = FaultSchedule((crash_at(1, 100_000.0),))
    two = FaultSchedule((crash_at(2, 200_000.0),))
    forward = DeploymentSpec(config, num_shards=2,
                             fault_schedules={0: one, 1: two})
    backward = DeploymentSpec(config, num_shards=2,
                              fault_schedules={1: two, 0: one})
    assert forward.cell_hash() == backward.cell_hash()


def test_defaulted_fault_event_fields_hash_identically():
    config = _config()
    helper = FaultSchedule((crash_at(3, 500_000.0),))
    explicit = FaultSchedule((FaultEvent(
        kind=FaultEventKind.CRASH, at_us=500_000.0, replica=3,
        replicas=frozenset(), name=""),))
    assert (DeploymentSpec(config, fault_schedule=helper).cell_hash()
            == DeploymentSpec(config, fault_schedule=explicit).cell_hash())


def test_result_affecting_changes_hash_apart():
    base = DeploymentSpec(_config()).cell_hash()
    assert DeploymentSpec(_config("pbft")).cell_hash() != base
    assert DeploymentSpec(_config(num_clients=7)).cell_hash() != base
    assert DeploymentSpec(_config(), backend="live").cell_hash() != base
    assert DeploymentSpec(_config(), num_shards=2).cell_hash() != base
    assert DeploymentSpec(
        _config(),
        fault_schedule=FaultSchedule((crash_at(1, 1.0),))).cell_hash() != base
    assert DeploymentSpec(_config(), backend="live-tcp").cell_hash() != base


def test_cell_hashes_as_its_spec():
    spec = DeploymentSpec(_config())
    cell = Cell(spec=spec, axes={"clients": 12})
    assert cell.content_hash == spec.cell_hash()
    # Presentation fields are not identity.
    assert Cell(spec=spec, label="renamed").content_hash == spec.cell_hash()


# ---------------------------------------------------------------- expansion
def test_matrix_expands_the_axis_product():
    spec = MatrixSpec(name="t", protocols=("pbft", "minbft"),
                      client_counts=(10, 20, 30))
    cells = spec.cells()
    assert len(cells) == 6
    assert [cell.axes["clients"] for cell in cells[:3]] == [10, 20, 30]
    assert {cell.protocol for cell in cells} == {"pbft", "minbft"}
    # Unswept axes contribute no row columns.
    assert all(set(cell.axes) == {"clients"} for cell in cells)


def test_matrix_validates_axis_values_up_front():
    with pytest.raises(ConfigurationError, match="unknown protocol"):
        MatrixSpec(name="t", protocols=("nosuch",)).cells()
    with pytest.raises(ConfigurationError, match="unknown backend"):
        MatrixSpec(name="t", protocols=("pbft",),
                   backends=("nosuch",)).cells()
    with pytest.raises(ConfigurationError, match="positive integer"):
        MatrixSpec(name="t", protocols=("pbft",),
                   client_counts=(0,)).cells()
    with pytest.raises(ConfigurationError, match="no protocols"):
        MatrixSpec(name="t", protocols=()).cells()


def test_matrix_refuses_duplicate_cells():
    with pytest.raises(ConfigurationError, match="same deployment"):
        MatrixSpec(name="t", protocols=("pbft", "pbft")).cells()


def test_fault_plan_cells_fix_the_run_horizon():
    plan = FaultPlan("crash-restart", crash_s=0.2, restart_s=0.35, end_s=0.7)
    spec = MatrixSpec(name="t", protocols=("minbft",),
                      client_counts=(12,), fault_plans=(plan,))
    (cell,) = spec.cells()
    assert cell.axes["fault"] == "crash-restart"
    assert cell.fixed_horizon_us == pytest.approx(700_000.0)
    # The horizon is hashed: a longer plan is a different cell.
    longer = FaultPlan("crash-restart", crash_s=0.2, restart_s=0.35, end_s=0.9)
    (other,) = MatrixSpec(name="t", protocols=("minbft",),
                          client_counts=(12,),
                          fault_plans=(longer,)).cells()
    assert other.content_hash != cell.content_hash


@pytest.mark.parametrize("protocol, crashed", [
    ("minbft", 2), ("pbft", 3), ("flexi-bft", 3)])
def test_fault_plan_crashes_and_restarts_the_last_replica(protocol, crashed):
    plan = FaultPlan("crash-restart", crash_s=0.2, restart_s=0.35, end_s=0.7)
    schedule = plan.schedule(protocol, f=1)
    # The highest-numbered replica: never the view-0 primary, and the
    # number follows the protocol's replica count (2f+1 or 3f+1).
    assert schedule.events == (
        FaultEvent(kind=FaultEventKind.CRASH, at_us=200_000.0,
                   replica=crashed),
        FaultEvent(kind=FaultEventKind.RESTART, at_us=350_000.0,
                   replica=crashed))


def test_named_matrices_expand_cleanly():
    for name in MATRICES:
        cells = matrix_cells(name)
        assert cells, name
        hashes = [cell.content_hash for cell in cells]
        assert len(set(hashes)) == len(hashes), name
    with pytest.raises(ConfigurationError, match="unknown matrix"):
        matrix_cells("nosuch")


def test_named_matrix_whose_specs_collide_is_refused(monkeypatch):
    # Each spec is duplicate-free on its own; together they name one
    # deployment twice, which would share a single result file.
    first = MatrixSpec(name="a", protocols=("pbft", "minbft"),
                       client_counts=(10,))
    second = MatrixSpec(name="b", protocols=("minbft",), client_counts=(10,))
    monkeypatch.setitem(MATRICES, "colliding", (first, second))
    with pytest.raises(ConfigurationError, match="same deployment"):
        matrix_cells("colliding")


# ---------------------------------------------------------------- collation
def _row(protocol, clients, tx, cell="c0", backend="sim"):
    return {"protocol": protocol, "clients": clients,
            "throughput_tx_s": tx, "completed_requests": 100,
            "backend": backend, "cell": cell}


def test_collate_orders_points_and_groups_series():
    rows = [_row("pbft", 60, 2.0), _row("pbft", 20, 1.0),
            _row("minbft", 20, 3.0), {"protocol": "pbft", "no_axis": True}]
    series = collate_curves(rows, axis="clients")
    assert [(s.protocol, [p.x for p in s.points]) for s in series] == [
        ("minbft", [20]), ("pbft", [20, 60])]
    assert series[1].points[0].columns["throughput_tx_s"] == 1.0


def test_collate_payloads_adds_wall_clock_axis():
    payloads = [
        {"cell_hash": "c0", "wall_seconds": 2.0,
         "row": _row("pbft", 20, 1.0, cell="c0")},
        {"cell_hash": "c1", "wall_seconds": 0.0,
         "row": _row("pbft", 60, 2.0, cell="c1")},
    ]
    (series,) = collate_payloads(payloads, axis="clients")
    first, second = series.points
    assert first.columns["wall_tx_s"] == pytest.approx(50.0)
    # A missing/zero wall-clock measurement adds no column, fails nothing.
    assert "wall_tx_s" not in second.columns

"""The baseline-refresh decision, as a pure function of digests."""

from __future__ import annotations

import importlib.util
import pathlib

_SCRIPT = (pathlib.Path(__file__).resolve().parents[2]
           / "benchmarks" / "check_baseline_refresh.py")
_spec = importlib.util.spec_from_file_location("check_baseline_refresh", _SCRIPT)
check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check)

BASE = {
    "BENCH_fig1.json": ("fig1", "aaa"),
    "BENCH_fig1.medium.json": ("fig1", "bbb"),
    "BENCH_kernel.json": ("kernel", "ccc"),
}


def problems(tree, declared=()):
    return check.refresh_problems(BASE, tree, set(declared))


def test_nothing_moved_nothing_declared_is_clean():
    assert problems(dict(BASE)) == []


def test_an_undeclared_digest_change_is_a_problem():
    tree = dict(BASE, **{"BENCH_kernel.json": ("kernel", "zzz")})
    (problem,) = problems(tree)
    assert "BENCH_kernel.json: digest changed" in problem
    assert problems(tree, declared={"kernel"}) == []


def test_added_and_removed_baselines_need_a_declaration_too():
    added = dict(BASE, **{"BENCH_crypto.json": ("crypto", "ddd")})
    assert "BENCH_crypto.json: added" in problems(added)[0]
    assert problems(added, declared={"crypto"}) == []
    removed = {name: entry for name, entry in BASE.items()
               if name != "BENCH_kernel.json"}
    assert "BENCH_kernel.json: removed" in problems(removed)[0]
    assert problems(removed, declared={"kernel"}) == []


def test_a_declared_scenario_whose_digests_did_not_move_is_a_problem():
    (problem,) = problems(dict(BASE), declared={"fig1"})
    assert problem.startswith("fig1:") and "none of its digests moved" in problem
    # One moved file of a multi-scale scenario is enough to justify it.
    tree = dict(BASE, **{"BENCH_fig1.medium.json": ("fig1", "yyy")})
    assert problems(tree, declared={"fig1"}) == []


def test_a_declaration_does_not_cover_another_scenario():
    tree = dict(BASE, **{"BENCH_fig1.json": ("fig1", "xxx"),
                         "BENCH_kernel.json": ("kernel", "zzz")})
    (problem,) = problems(tree, declared={"fig1"})
    assert "scenario 'kernel'" in problem

"""The wire-version tripwire's decision, as a pure function of the goldens."""

from __future__ import annotations

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[2]
_SCRIPT = ROOT / "benchmarks" / "check_wire_version.py"
_spec = importlib.util.spec_from_file_location("check_wire_version", _SCRIPT)
check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check)


def frame(version: int, body: bytes = b"x") -> bytes:
    return b"RB" + bytes((version, 0)) + len(body).to_bytes(4, "big") + body


BASE = {"Prepare.bin": frame(3, b"p"), "Commit.bin": frame(3, b"c")}


def problems(tree, base_version=3, tree_version=3):
    return check.wire_version_problems(BASE, tree, base_version, tree_version)


def test_unchanged_goldens_at_the_same_version_are_clean():
    assert problems(dict(BASE)) == []


def test_a_moved_golden_needs_a_version_bump():
    tree = dict(BASE, **{"Commit.bin": frame(3, b"C")})
    (problem,) = problems(tree)
    assert problem.startswith("Commit.bin: changed") and "WIRE_VERSION" in problem
    moved = {name: frame(4, body[8:]) for name, body in tree.items()}
    assert problems(moved, tree_version=4) == []


def test_a_removed_golden_is_a_change_and_an_added_one_is_not():
    removed = {"Prepare.bin": BASE["Prepare.bin"]}
    assert "Commit.bin: removed" in problems(removed)[0]
    added = dict(BASE, **{"Checkpoint.bin": frame(3, b"k")})
    assert problems(added) == []


def test_every_golden_carries_the_current_version_byte():
    bumped_without_regen = problems(dict(BASE), tree_version=4)
    assert len(bumped_without_regen) == 2
    assert all("header version byte is 3, not WIRE_VERSION 4" in problem
               for problem in bumped_without_regen)
    stale = dict(BASE, **{"Checkpoint.bin": frame(2, b"k")})
    (problem,) = problems(stale)
    assert problem.startswith("Checkpoint.bin: header version byte is 2")
    assert "none" in problems(dict(BASE, **{"Cut.bin": b"RB"}))[0]


def test_the_committed_goldens_carry_the_committed_version():
    goldens, version = check.tree_side(ROOT)
    assert goldens and check.wire_version_problems(
        goldens, goldens, version, version) == []

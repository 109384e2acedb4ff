#!/usr/bin/env python3
"""Fail when a committed determinism digest moves without being declared.

The ``metrics_digest`` of each ``benchmarks/baselines/BENCH_*.json`` is the
determinism contract: a refresh is only legitimate when a PR *names* the
scenarios whose simulated rows it deliberately changed.  This check reads
every baseline at the merge base with a base ref (``git show``) and in the
working tree, and compares digests — not file names, so rewriting a file
without moving its digest needs no declaration.  It fails when

* a baseline's digest changed, or a baseline was added or removed, and its
  scenario is not listed in ``benchmarks/baselines/REFRESH.txt`` (the classic
  "refresh everything until CI is green"), or
* ``REFRESH.txt`` names a scenario none of whose digests moved (a stale
  declaration is a standing licence to change that scenario later).

Each refreshing PR rewrites ``REFRESH.txt`` to name exactly its scenarios.

Usage::

    python benchmarks/check_baseline_refresh.py [--base origin/main]

Exit status 0 when declarations and moved digests agree, 1 otherwise.  Run
from anywhere inside the repository.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BASELINE_DIR = "benchmarks/baselines"
ALLOWLIST = "REFRESH.txt"

#: file name -> (scenario, metrics_digest) of every baseline on one side.
Baselines = dict[str, tuple[str, str]]


def refresh_problems(base: Baselines, tree: Baselines,
                     declared: set[str]) -> list[str]:
    """What is wrong with a refresh; empty when it is confined and complete.

    ``base`` and ``tree`` describe the baselines at the merge base and in
    the working tree; ``declared`` is the scenario set ``REFRESH.txt`` names.
    """
    problems = []
    moved: set[str] = set()
    for name in sorted(base.keys() | tree.keys()):
        before, after = base.get(name), tree.get(name)
        if before == after:
            continue
        scenario = (after or before)[0]
        moved.add(scenario)
        if scenario not in declared:
            what = ("added" if before is None else
                    "removed" if after is None else "digest changed")
            problems.append(f"{name}: {what}, but scenario {scenario!r} is "
                            f"not named in {BASELINE_DIR}/{ALLOWLIST}")
    for scenario in sorted(declared - moved):
        problems.append(f"{scenario}: named in {BASELINE_DIR}/{ALLOWLIST}, "
                        "but none of its digests moved")
    return problems


def _entry(text: str) -> tuple[str, str]:
    payload = json.loads(text)
    return str(payload["scenario"]), str(payload["metrics_digest"])


def _is_baseline(name: str) -> bool:
    return name.startswith("BENCH_") and name.endswith(".json")


def repo_root() -> Path:
    out = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                         capture_output=True, text=True, check=True)
    return Path(out.stdout.strip())


def base_baselines(root: Path, base: str) -> Baselines:
    """Every baseline as committed at the merge base with ``base``."""
    merge_base = subprocess.run(
        ["git", "merge-base", base, "HEAD"],
        capture_output=True, text=True, cwd=root)
    anchor = merge_base.stdout.strip() if merge_base.returncode == 0 else base
    listing = subprocess.run(
        ["git", "ls-tree", "--name-only", anchor, BASELINE_DIR + "/"],
        capture_output=True, text=True, cwd=root, check=True)
    found: Baselines = {}
    for path in listing.stdout.splitlines():
        name = Path(path).name
        if _is_baseline(name):
            shown = subprocess.run(
                ["git", "show", f"{anchor}:{path}"],
                capture_output=True, text=True, cwd=root, check=True)
            found[name] = _entry(shown.stdout)
    return found


def tree_baselines(root: Path) -> Baselines:
    """Every baseline in the working tree (committed or not)."""
    return {path.name: _entry(path.read_text(encoding="utf-8"))
            for path in sorted((root / BASELINE_DIR).iterdir())
            if _is_baseline(path.name)}


def declared_scenarios(root: Path) -> set[str]:
    path = root / BASELINE_DIR / ALLOWLIST
    if not path.exists():
        return set()
    names: set[str] = set()
    for line in path.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            names.add(line)
    return names


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--base", default="origin/main",
                        help="ref the baselines are compared against "
                             "(default: origin/main)")
    args = parser.parse_args(argv)

    root = repo_root()
    declared = declared_scenarios(root)
    problems = refresh_problems(base_baselines(root, args.base),
                                tree_baselines(root), declared)
    if problems:
        print("baseline digests and the declared refresh disagree:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    if declared:
        print(f"baseline refresh confined to declared scenarios: "
              f"{sorted(declared)}")
    else:
        print("no baseline digest moved against", args.base)
    return 0


if __name__ == "__main__":
    sys.exit(main())

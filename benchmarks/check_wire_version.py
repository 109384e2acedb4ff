#!/usr/bin/env python3
"""Fail when a wire golden vector moves without a wire-version bump.

``tests/golden/wire/*.bin`` pin the frame format byte for byte, and
``WIRE_VERSION`` in ``src/repro/net/wire.py`` names it: a decoder accepts
only its own version, so two builds that frame a message differently must
never claim the same one.  This check compares the goldens and the version
at the merge base with a base ref (``git show``) against the working tree.
It fails when

* a golden vector present at the merge base changed or was removed while
  ``WIRE_VERSION`` stayed the same (a new class's vector is an addition,
  not a change), or
* a golden vector's header version byte (offset 2) is not the working
  tree's ``WIRE_VERSION``.

Usage::

    python benchmarks/check_wire_version.py [--base origin/main]

Exit status 0 when the goldens and the version agree, 1 otherwise.  Run
from anywhere inside the repository.
"""

from __future__ import annotations

import argparse
import re
import subprocess
import sys
from pathlib import Path

GOLDEN_DIR = "tests/golden/wire"
WIRE_MODULE = "src/repro/net/wire.py"
_VERSION = re.compile(rb"^WIRE_VERSION = (\d+)$", re.MULTILINE)

#: golden file name -> frame bytes on one side.
Goldens = dict[str, bytes]


def wire_version_problems(base: Goldens, tree: Goldens, base_version: int,
                          tree_version: int) -> list[str]:
    """What is wrong with the goldens; empty when they and the version agree.

    ``base`` and ``tree`` are the goldens at the merge base and in the
    working tree, ``base_version`` and ``tree_version`` the ``WIRE_VERSION``
    on each side.
    """
    problems = []
    if base_version == tree_version:
        for name in sorted(base):
            if tree.get(name) != base[name]:
                what = "removed" if name not in tree else "changed"
                problems.append(
                    f"{name}: {what}, but WIRE_VERSION is still "
                    f"{tree_version}; bump it in {WIRE_MODULE}")
    for name, frame in sorted(tree.items()):
        if len(frame) < 3 or frame[2] != tree_version:
            found = frame[2] if len(frame) >= 3 else "none"
            problems.append(f"{name}: header version byte is {found}, not "
                            f"WIRE_VERSION {tree_version}")
    return problems


def version_of(source: bytes) -> int:
    match = _VERSION.search(source)
    if match is None:
        raise SystemExit(f"no 'WIRE_VERSION = <n>' line in {WIRE_MODULE}")
    return int(match.group(1))


def _git(root: Path, *args: str) -> bytes:
    return subprocess.run(["git", *args], capture_output=True, cwd=root,
                          check=True).stdout


def repo_root() -> Path:
    return Path(_git(Path.cwd(), "rev-parse", "--show-toplevel")
                .decode().strip())


def base_side(root: Path, base: str) -> tuple[Goldens, int]:
    """The goldens and the version as committed at the merge base."""
    merge_base = subprocess.run(["git", "merge-base", base, "HEAD"],
                                capture_output=True, text=True, cwd=root)
    anchor = merge_base.stdout.strip() if merge_base.returncode == 0 else base
    listing = _git(root, "ls-tree", "--name-only", anchor, GOLDEN_DIR + "/")
    goldens = {Path(path).name: _git(root, "show", f"{anchor}:{path}")
               for path in listing.decode().splitlines()
               if path.endswith(".bin")}
    return goldens, version_of(_git(root, "show", f"{anchor}:{WIRE_MODULE}"))


def tree_side(root: Path) -> tuple[Goldens, int]:
    """The goldens and the version in the working tree."""
    goldens = {path.name: path.read_bytes()
               for path in sorted((root / GOLDEN_DIR).glob("*.bin"))}
    return goldens, version_of((root / WIRE_MODULE).read_bytes())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--base", default="origin/main",
                        help="ref the goldens are compared against "
                             "(default: origin/main)")
    args = parser.parse_args(argv)

    root = repo_root()
    base_goldens, base_version = base_side(root, args.base)
    tree_goldens, tree_version = tree_side(root)
    problems = wire_version_problems(base_goldens, tree_goldens,
                                     base_version, tree_version)
    if problems:
        print("wire golden vectors and WIRE_VERSION disagree:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    moved = sum(tree_goldens.get(name) != frame
                for name, frame in base_goldens.items())
    print(f"wire v{tree_version} (v{base_version} at {args.base}): "
          f"{len(tree_goldens)} goldens, {moved} moved")
    return 0


if __name__ == "__main__":
    sys.exit(main())

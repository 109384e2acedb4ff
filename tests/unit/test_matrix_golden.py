"""Golden vectors pinning every committed matrix cell hash.

``tests/golden/matrix/cell_hashes.json`` holds, for every named matrix in
:data:`repro.matrix.MATRICES`, the ``label -> content hash`` map of its
expanded cells.  The tests assert:

* every committed matrix has a golden entry and vice versa (adding a
  matrix without pinning its hashes fails CI),
* every cell's content hash matches its committed vector exactly.

A changed vector means the spec hashing (the sorted-key JSON of
``describe()``) or the matrix definition changed — which orphans every
persisted ``results/<hash>.json`` file and breaks resume.  If that is intended, regenerate deliberately
with::

    PYTHONPATH=src python tests/unit/test_matrix_golden.py --regen
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.matrix import MATRICES, matrix_cells

GOLDEN_FILE = (pathlib.Path(__file__).resolve().parents[1]
               / "golden" / "matrix" / "cell_hashes.json")


def expected_hashes() -> dict[str, dict[str, str]]:
    """``matrix name -> {cell label -> content hash}`` from the live code."""
    return {name: {cell.label: cell.content_hash
                   for cell in matrix_cells(name)}
            for name in sorted(MATRICES)}


def committed_hashes() -> dict[str, dict[str, str]]:
    assert GOLDEN_FILE.is_file(), (
        f"no committed golden vectors at {GOLDEN_FILE}; run "
        "'PYTHONPATH=src python tests/unit/test_matrix_golden.py --regen'")
    return json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))


def test_every_matrix_has_golden_vectors():
    committed = committed_hashes()
    assert set(committed) == set(MATRICES), (
        "MATRICES and the golden file disagree; regenerate the vectors "
        "deliberately after adding or removing a matrix")


@pytest.mark.parametrize("name", sorted(MATRICES))
def test_matrix_cell_hashes_match_golden(name):
    committed = committed_hashes().get(name, {})
    live = {cell.label: cell.content_hash for cell in matrix_cells(name)}
    assert live == committed, (
        f"matrix {name!r} no longer hashes as committed — the spec "
        "description or the matrix definition changed, which orphans "
        "persisted cell results; regenerate deliberately if intended")


def _regen() -> None:
    GOLDEN_FILE.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_FILE.write_text(
        json.dumps(expected_hashes(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    print(f"wrote {GOLDEN_FILE}")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)

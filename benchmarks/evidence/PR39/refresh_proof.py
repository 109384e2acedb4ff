"""Refresh proof: the determinism digests left the wire codec, nothing else.

``metrics_digest``, ``DeploymentSpec.cell_hash`` and a matrix result's
``row_digest`` now hash sorted-key JSON under SHA-256 instead of the
codec's canonical bytes.  For every committed baseline this script shows:

* the ``rows`` array at ``PARENT`` and in the working tree are equal, except
  the ``cell`` column of ``figures``, which holds cell hashes;
* the v2 canonical encoder (a copy below, sharing no code with ``src/``)
  reproduces ``PARENT``'s ``metrics_digest`` from the parent's rows;
* the working tree's ``metrics_digest`` is ``sha256`` of the rows' compact
  sorted-key JSON, computed from the file alone with ``json`` and
  ``hashlib``.

For every cell hash — the ``cell`` column of ``figures`` and every entry of
``tests/golden/matrix/cell_hashes.json`` — it shows that the v2 encoding of
the cell's ``describe()`` gives the parent's hash and its JSON gives the
new one.

Run it from the repository root with ``PYTHONPATH=src``; it exits 1 unless
every check holds.
"""

import hashlib
import json
import pathlib
import subprocess
import sys
from dataclasses import fields, is_dataclass

from repro.matrix import MATRICES, matrix_cells
from repro.perf import run_scenario
from repro.runtime.spec import CELL_HASH_HEX, DeploymentSpec

PARENT = "517812c"
BASELINES = pathlib.Path("benchmarks/baselines")
GOLDEN = "tests/golden/matrix/cell_hashes.json"


def v2(value, out):
    """The parent's self-describing canonical encoding of plain data."""
    def token(tag, body):
        out.extend(tag + b"%d:" % len(body) + body)

    if value is None:
        out += b"N"
    elif isinstance(value, bool):
        out += b"T" if value else b"F"
    elif isinstance(value, int):
        token(b"i", str(value).encode())
    elif isinstance(value, float):
        token(b"f", repr(value).encode())
    elif isinstance(value, str):
        token(b"s", value.encode())
    elif isinstance(value, bytes):
        token(b"b", value)
    elif is_dataclass(value):
        token(b"D", type(value).__name__.encode())
        for f in fields(value):
            token(b"s", f.name.encode())
            v2(getattr(value, f.name), out)
        out += b"d"
    elif isinstance(value, dict):
        out += b"M"
        for key in sorted(value, key=lambda k: (type(k).__name__, repr(k))):
            v2(key, out)
            v2(value[key], out)
        out += b"m"
    elif isinstance(value, (list, tuple)):
        out += b"L"
        for item in value:
            v2(item, out)
        out += b"l"
    else:
        raise TypeError(type(value))
    return out


def v2_digest(value):
    return hashlib.sha256(bytes(v2(value, bytearray()))).hexdigest()


def as_fields(value):
    if not is_dataclass(value):
        raise TypeError(type(value))
    return {"__class__": type(value).__name__,
            **{f.name: getattr(value, f.name) for f in fields(value)}}


def file_digest(value):
    """sha256 of compact sorted-key JSON (dataclasses as their fields)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"),
                      default=as_fields)
    return hashlib.sha256(text.encode()).hexdigest()


def parent_json(path):
    return json.loads(subprocess.check_output(
        ["git", "show", f"{PARENT}:{path}"]))


ok = True


def check(label, condition):
    global ok
    ok = ok and condition
    print(f"  {label}: {condition}")


for path in sorted(BASELINES.glob("BENCH_*.json")):
    before = parent_json(path.as_posix())
    after = json.loads(path.read_text())
    print(f"{path.name} ({len(after['rows'])} rows)")
    strip = (lambda row: {k: v for k, v in row.items() if k != "cell"})
    check("rows unchanged" + (" but for the cell column"
                               if path.name == "BENCH_figures.json" else ""),
          [strip(r) for r in before["rows"]] == [strip(r) for r in after["rows"]]
          and (path.name == "BENCH_figures.json"
               or before["rows"] == after["rows"]))
    check(f"v2 encoding of the parent rows == parent digest "
          f"{before['metrics_digest'][:12]}",
          v2_digest(before["rows"]) == before["metrics_digest"])
    check(f"sha256 of the file's rows as JSON == new digest "
          f"{after['metrics_digest'][:12]}",
          file_digest(after["rows"]) == after["metrics_digest"])

# Every cell hash: record each spec the figures scenario hashes.
described = {}
cell_hash = DeploymentSpec.cell_hash


def recording_cell_hash(spec):
    value = cell_hash(spec)
    described[value] = spec.describe()
    return value


DeploymentSpec.cell_hash = recording_cell_hash
rows = run_scenario("figures", "smoke")["rows"]
DeploymentSpec.cell_hash = cell_hash
before = parent_json("benchmarks/baselines/BENCH_figures.json")["rows"]
print(f"figures cell column ({len(rows)} rows)")
check("each parent cell == v2 hash of its spec, each new cell == JSON hash",
      len(before) == len(rows) and all(
          old["cell"] == v2_digest(described[new["cell"]])[:CELL_HASH_HEX]
          and new["cell"] == file_digest(described[new["cell"]])[:CELL_HASH_HEX]
          for old, new in zip(before, rows)))

golden_before = parent_json(GOLDEN)
golden_after = json.loads(pathlib.Path(GOLDEN).read_text())
pairs = [(name, cell) for name in sorted(MATRICES)
         for cell in matrix_cells(name)]
print(f"{GOLDEN} ({len(pairs)} cells in {len(MATRICES)} matrices)")
check("same matrices and labels",
      {m: set(c) for m, c in golden_before.items()}
      == {m: set(c) for m, c in golden_after.items()})
check("v2 hash of each cell's describe() == parent golden",
      all(golden_before[name][cell.label]
          == v2_digest(cell.spec.describe())[:CELL_HASH_HEX]
          for name, cell in pairs))
check("new golden == JSON hash of each cell's describe()",
      all(golden_after[name][cell.label]
          == file_digest(cell.spec.describe())[:CELL_HASH_HEX]
          for name, cell in pairs))
sys.exit(0 if ok else 1)

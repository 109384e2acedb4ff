"""Refresh proof: the deleted configuration fields left the cell hashes only.

Twenty-five settable values that nothing set away from their defaults were
deleted from the specs; each default became a constant beside its reader.
The values of a run did not change, but ``DeploymentSpec.describe()`` no
longer carries the fields, so every cell hash moved, and with them the
``cell`` column of the ``figures`` baseline.  This script shows:

* every committed baseline but ``BENCH_figures.json`` is byte-identical to
  ``PARENT``'s;
* the ``figures`` rows at ``PARENT`` equal the new rows once the ``cell``
  column is dropped from both;
* each of ``PARENT``'s cell hashes (the ``figures`` cells and every entry of
  ``tests/golden/matrix/cell_hashes.json``) is the JSON hash of the new
  ``describe()`` with the deleted fields put back at ``PARENT``'s defaults
  (the table below, written out here rather than imported), and each new
  hash is the JSON hash of the new ``describe()`` as it is.

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

PARENT = "a908fc6"
BASELINES = pathlib.Path("benchmarks/baselines")
GOLDEN = "tests/golden/matrix/cell_hashes.json"

#: class name -> the fields this change deleted, at PARENT's defaults.
DELETED = {
    "DeploymentConfig": {"crypto": {
        "__class__": "CryptoCostModel", "mac_generate_us": 0.4,
        "mac_verify_us": 0.4, "ds_sign_us": 45.0, "ds_verify_us": 120.0,
        "hash_us": 0.5, "attestation_verify_us": 125.0,
        "execute_op_us": 1.5, "message_overhead_us": 1.0}},
    "TrustedHardwareSpec": {"supports_counters": True, "supports_logs": True,
                            "attestation_sign_us": 45.0},
    "NetworkConfig": {"intra_region_latency_us": 120.0,
                      "jitter_fraction": 0.05, "per_message_wire_us": 0.5},
    "WorkloadConfig": {"zipf_theta": 0.9, "value_size": 64},
    "RecoveryConfig": {"durable_store": True, "lag_threshold_intervals": 4,
                       "max_transfer_rounds": 8, "log_fill_limit": 200},
    "OpenLoopConfig": {"write_fraction": 0.5, "value_size": 64},
}


def json_hash(value, restore):
    """Cell hash of ``value``; ``restore`` re-inserts the deleted fields."""
    def as_fields(item):
        if not is_dataclass(item):
            raise TypeError(type(item))
        name = type(item).__name__
        return {"__class__": name,
                **{f.name: getattr(item, f.name) for f in fields(item)},
                **(DELETED.get(name, {}) if restore else {})}

    text = json.dumps(value, sort_keys=True, separators=(",", ":"),
                      default=as_fields)
    return hashlib.sha256(text.encode()).hexdigest()[:CELL_HASH_HEX]


def at_parent(path):
    return subprocess.check_output(["git", "show", f"{PARENT}:{path}"])


ok = True


def check(label, condition):
    global ok
    ok = ok and condition
    print(f"  {label}: {condition}")


print("baselines")
for path in sorted(BASELINES.glob("BENCH_*.json")):
    if path.name != "BENCH_figures.json":
        check(f"{path.name} byte-identical",
              at_parent(path.as_posix()) == path.read_bytes())

# Every cell hash of the figures scenario: record the spec behind each.
described = {}
cell_hash = DeploymentSpec.cell_hash


def recording_cell_hash(spec):
    value = cell_hash(spec)
    described[value] = spec.describe()
    return value


DeploymentSpec.cell_hash = recording_cell_hash
rows = run_scenario("figures", "smoke")["rows"]
DeploymentSpec.cell_hash = cell_hash
before = json.loads(at_parent("benchmarks/baselines/BENCH_figures.json"))["rows"]
after = json.loads((BASELINES / "BENCH_figures.json").read_text())["rows"]
strip = (lambda row: {k: v for k, v in row.items() if k != "cell"})
print(f"BENCH_figures.json ({len(after)} rows)")
check("parent rows == new rows without the cell column",
      [strip(r) for r in before] == [strip(r) for r in after])
check("a fresh run reproduces the committed rows", rows == after)
check("each parent cell == hash of the new describe() with the deleted "
      "fields restored, each new cell == hash of the new describe()",
      len(before) == len(rows) and all(
          old["cell"] == json_hash(described[new["cell"]], restore=True)
          and new["cell"] == json_hash(described[new["cell"]], restore=False)
          for old, new in zip(before, rows)))

golden_before = json.loads(at_parent(GOLDEN))
golden_after = json.loads(pathlib.Path(GOLDEN).read_text())
pairs = [(name, cell) for name in sorted(MATRICES)
         for cell in matrix_cells(name)]
print(f"{GOLDEN} ({len(pairs)} cells in {len(MATRICES)} matrices)")
check("same matrices and labels",
      {m: set(c) for m, c in golden_before.items()}
      == {m: set(c) for m, c in golden_after.items()})
check("parent golden == hash of each describe() with the deleted fields "
      "restored",
      all(golden_before[name][cell.label]
          == json_hash(cell.spec.describe(), restore=True)
          for name, cell in pairs))
check("new golden == hash of each describe()",
      all(golden_after[name][cell.label]
          == json_hash(cell.spec.describe(), restore=False)
          for name, cell in pairs))
check("every golden moved", all(
    golden_before[name][cell.label] != golden_after[name][cell.label]
    for name, cell in pairs))
sys.exit(0 if ok else 1)

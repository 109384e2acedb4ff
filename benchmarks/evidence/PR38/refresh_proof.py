"""Refresh proof for the ``protocols`` and ``recovery`` baselines.

Every row committed at ``PARENT`` must equal the row the working tree
produces minus exactly the timeline columns it adds, and the stripped rows
must reproduce ``PARENT``'s ``metrics_digest``.  Added columns:

* ``protocols``: the primary-crash rows gain the recovery summary
  (``pre_crash_tx_s``, ``dip_tx_s``, ``dip_fraction``,
  ``post_recovery_tx_s``, ``time_to_recover_s``) plus ``recovered`` and
  ``transfer_batches``; the normal rows gain nothing;
* ``recovery``: every row gains ``r{i}_view``, ``r{i}_last_executed`` and
  ``r{i}_trusted_accesses`` for each replica.

Run it as a script from the repository root with ``PYTHONPATH=src``; it
exits 1 unless every row and digest agrees.
"""

import json
import re
import subprocess
import sys

from repro.perf import metrics_digest, run_scenario

PARENT = "3fee1ff"
SUMMARY = ("pre_crash_tx_s", "dip_tx_s", "dip_fraction", "post_recovery_tx_s",
           "time_to_recover_s", "recovered", "transfer_batches")
PER_REPLICA = re.compile(r"r\d+_(view|last_executed|trusted_accesses)$")


def added(scenario, row):
    """The columns the timeline adds to one row of ``scenario``."""
    if scenario == "protocols":
        return set(SUMMARY) if row["timeline"] == "primary-crash" else set()
    return {key for key in row if PER_REPLICA.match(key)}


ok = True
for scenario, scale, path in (
        ("protocols", "smoke", "BENCH_protocols.json"),
        ("recovery", "smoke", "BENCH_recovery.json"),
        ("recovery", "medium", "BENCH_recovery.medium.json")):
    committed = json.loads(subprocess.check_output(
        ["git", "show", f"{PARENT}:benchmarks/baselines/{path}"]))
    stripped, names = [], set()
    for row in run_scenario(scenario, scale)["rows"]:
        extra = added(scenario, row)
        assert extra <= row.keys(), (scenario, extra - row.keys())
        names |= extra
        stripped.append({k: v for k, v in row.items() if k not in extra})
    same_rows = json.loads(json.dumps(stripped)) == committed["rows"]
    same_digest = metrics_digest(stripped) == committed["metrics_digest"]
    ok = ok and same_rows and same_digest
    print(f"{scenario}.{scale}: {len(stripped)} rows; rows equal after "
          f"stripping: {same_rows}; stripped digest == {PARENT} digest "
          f"{committed['metrics_digest'][:12]}: {same_digest}; added: "
          f"{', '.join(sorted(names))}")
sys.exit(0 if ok else 1)

"""Run a scenario, digest its rows, compare with the committed baseline.

A committed baseline is the ``BENCH_<scenario>[.<scale>].json`` of a
known-good run: the scenario's simulated rows and the ``metrics_digest``
over them.  A fresh run must reproduce the digest exactly — a change that
is only a speed-up leaves the simulated rows byte-identical; a digest
mismatch means behaviour changed and the baseline must be refreshed
deliberately (``python -m repro perf --update-baseline``, plus an entry in
``benchmarks/baselines/REFRESH.txt``).  Nothing here is timed: speed is
measured by the repo benchmark (``BENCHMARK.json``) and nowhere else.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from typing import Iterable, Optional

from .scenarios import PERF_SCALES, SCENARIOS, metrics_digest

#: bump when the BENCH_*.json layout changes incompatibly.
SCHEMA_VERSION = 2

# comparison statuses
OK = "ok"
MISSING_BASELINE = "missing-baseline"
DIGEST_MISMATCH = "digest-mismatch"
#: the baseline is not a record of this run (schema drift, scenario or scale
#: mismatch) — a failure, not a silent pass: a baseline that compares
#: nothing protects nothing.
INCOMPARABLE = "incomparable"

_BENCH_FILE = re.compile(r"^BENCH_(?P<scenario>.+?)(?:\.(?P<scale>[a-z]+))?\.json$")


def run_scenario(name: str, scale_name: str = "smoke") -> dict:
    """Run one named scenario at one scale; returns its ``BENCH`` payload."""
    try:
        scenario = SCENARIOS[name]
    except KeyError:
        raise KeyError(f"unknown scenario {name!r}; "
                       f"available: {', '.join(sorted(SCENARIOS))}") from None
    try:
        scale = PERF_SCALES[scale_name]
    except KeyError:
        raise KeyError(f"unknown scale {scale_name!r}; "
                       f"available: {', '.join(sorted(PERF_SCALES))}") from None
    rows = scenario(scale)
    return {
        "schema_version": SCHEMA_VERSION,
        "scenario": name,
        "scale": scale.name,
        "metrics_digest": metrics_digest(rows),
        "rows": rows,
    }


def baseline_path(baseline_dir: str, scenario: str,
                  scale: Optional[str] = None) -> str:
    """Where the committed baseline for ``scenario`` (at ``scale``) lives.

    Baselines are scale-qualified — ``BENCH_<scenario>.<scale>.json`` — so a
    ``medium`` run is compared with a committed medium baseline instead of
    failing the smoke one with a scale mismatch.  The smoke scale (and
    callers that do not pass a scale) keep the historical unqualified
    ``BENCH_<scenario>.json`` name.
    """
    if scale and scale != "smoke":
        return os.path.join(baseline_dir, f"BENCH_{scenario}.{scale}.json")
    return os.path.join(baseline_dir, f"BENCH_{scenario}.json")


def committed_baselines(baseline_dir: str) -> list[tuple[str, str]]:
    """The ``(scenario, scale)`` of every ``BENCH_*.json`` in a directory."""
    found = []
    for filename in sorted(os.listdir(baseline_dir)):
        match = _BENCH_FILE.match(filename)
        if match is not None:
            found.append((match.group("scenario"),
                          match.group("scale") or "smoke"))
    return found


def write_bench_json(payload: dict, out_dir: str) -> str:
    """Write one payload into ``out_dir`` under its baseline name."""
    os.makedirs(out_dir, exist_ok=True)
    path = baseline_path(out_dir, payload["scenario"], payload["scale"])
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_baseline(path: str) -> Optional[dict]:
    """Load one baseline JSON; ``None`` when the file does not exist."""
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


@dataclass(frozen=True)
class BaselineComparison:
    """Outcome of comparing one fresh result against its baseline."""

    scenario: str
    scale: str
    status: str
    notes: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.status == OK


def compare_result(current: dict,
                   baseline: Optional[dict]) -> BaselineComparison:
    """Compare one fresh payload against its baseline payload.

    ``current`` is what :func:`run_scenario` returned; ``baseline`` is what a
    file held, so only it is read defensively.  It is ``None`` when no
    baseline is committed, which is itself a failure — a checked scenario
    without a baseline checks nothing.
    """
    scenario, scale = current["scenario"], current["scale"]
    if baseline is None:
        return BaselineComparison(
            scenario, scale, MISSING_BASELINE,
            (f"no committed baseline for scenario {scenario!r} at scale "
             f"{scale!r}; record one with --update-baseline",))
    for field in ("schema_version", "scenario", "scale"):
        if baseline.get(field) != current[field]:
            return BaselineComparison(
                scenario, scale, INCOMPARABLE,
                (f"{field} mismatch: baseline {baseline.get(field)!r} vs "
                 f"current {current[field]!r}",))
    baseline_digest = baseline.get("metrics_digest")
    current_digest = current["metrics_digest"]
    if baseline_digest != current_digest:
        return BaselineComparison(
            scenario, scale, DIGEST_MISMATCH,
            ("simulated results differ from the baseline "
             f"({str(baseline_digest)[:12]} != {str(current_digest)[:12]}): "
             "determinism changed; refresh baselines if intentional",))
    return BaselineComparison(scenario, scale, OK)


def compare_to_dir(results: Iterable[dict],
                   baseline_dir: str) -> list[BaselineComparison]:
    """Compare fresh payloads against the baselines in one directory."""
    return [
        compare_result(current, load_baseline(baseline_path(
            baseline_dir, current["scenario"], current["scale"])))
        for current in results
    ]


def format_result(payload: dict) -> str:
    """One human-readable summary line per scenario run."""
    return (f"{payload['scenario']:<18} scale={payload['scale']:<7} "
            f"rows={len(payload['rows']):>3}  "
            f"digest={payload['metrics_digest'][:12]}")


def format_comparison(comparison: BaselineComparison) -> str:
    """Human-readable report for one comparison."""
    lines = [f"[{comparison.status.upper():>16}] {comparison.scenario} "
             f"({comparison.scale})"]
    lines.extend(f"    note: {note}" for note in comparison.notes)
    return "\n".join(lines)

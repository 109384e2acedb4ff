"""The committed determinism digests, checked in tier-1.

Every ``benchmarks/baselines/BENCH_*.json`` pins the simulated rows of one
deterministic scenario.  Two facts are checked against the committed files
themselves, not against temporary directories: each file's digest really is
the digest of the rows beside it, and each smoke-scale scenario, run once,
still reproduces its committed digest — so a change of simulated behaviour
fails here, before the CI ``determinism`` job runs the larger scales.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.perf import (
    SCENARIOS,
    baseline_path,
    committed_baselines,
    compare_result,
    format_comparison,
    load_baseline,
    metrics_digest,
    run_scenario,
)

BASELINE_DIR = str(pathlib.Path(__file__).resolve().parents[2]
                   / "benchmarks" / "baselines")
COMMITTED = committed_baselines(BASELINE_DIR)


def _id(pair):
    return f"{pair[0]}.{pair[1]}"


def test_every_scenario_has_a_committed_smoke_baseline():
    assert len(COMMITTED) == 15
    assert {scenario for scenario, scale in COMMITTED
            if scale == "smoke"} == set(SCENARIOS)


@pytest.mark.parametrize("pair", COMMITTED, ids=_id)
def test_committed_digest_is_the_digest_of_the_committed_rows(pair):
    scenario, scale = pair
    payload = load_baseline(baseline_path(BASELINE_DIR, scenario, scale))
    assert (payload["scenario"], payload["scale"]) == pair
    assert metrics_digest(payload["rows"]) == payload["metrics_digest"]


@pytest.mark.parametrize(
    "scenario", [scenario for scenario, scale in COMMITTED if scale == "smoke"])
def test_smoke_scenario_reproduces_its_committed_digest(scenario):
    committed = load_baseline(baseline_path(BASELINE_DIR, scenario, "smoke"))
    comparison = compare_result(run_scenario(scenario, "smoke"), committed)
    assert comparison.ok, format_comparison(comparison)

"""The committed determinism digests, checked in tier-1.

Every ``benchmarks/baselines/BENCH_*.json`` pins the simulated rows of one
deterministic scenario.  Two facts are checked against the committed files
themselves, not against temporary directories: each file's digest really is
the digest of the rows beside it, and each smoke-scale scenario, run once,
still reproduces its committed digest — so a change of simulated behaviour
fails here, before the CI ``determinism`` job runs the larger scales.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from dataclasses import dataclass

import pytest

from repro.common.jsonhash import json_digest

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


@pytest.mark.parametrize("pair", COMMITTED, ids=_id)
def test_committed_digest_is_recomputable_from_the_file_alone(pair):
    path = pathlib.Path(baseline_path(BASELINE_DIR, *pair))
    payload = json.loads(path.read_text(encoding="utf-8"))
    text = json.dumps(payload["rows"], sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        payload["metrics_digest"]


@dataclass(frozen=True)
class _Point:
    x: int
    label: str


def test_json_digest_hashes_a_dataclass_as_its_named_fields():
    assert json_digest({"p": _Point(1, "a")}) == json_digest(
        {"p": {"label": "a", "x": 1, "__class__": "_Point"}})
    assert json_digest((1, 2)) == json_digest([1, 2])
    assert json_digest(1) != json_digest(1.0) != json_digest(True)


@pytest.mark.parametrize("value", [{1, 2}, b"raw", object()])
def test_json_digest_refuses_values_json_cannot_spell(value):
    with pytest.raises(TypeError):
        json_digest({"value": value})


@pytest.mark.parametrize(
    "scenario", [scenario for scenario, scale in COMMITTED if scale == "smoke"])
def test_smoke_scenario_reproduces_its_committed_digest(scenario):
    committed = load_baseline(baseline_path(BASELINE_DIR, scenario, "smoke"))
    comparison = compare_result(run_scenario(scenario, "smoke"), committed)
    assert comparison.ok, format_comparison(comparison)

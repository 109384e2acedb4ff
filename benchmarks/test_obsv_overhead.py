"""Observability overhead gate: tracing must be cheap on and free off.

Two claims, each load-bearing for the production observability layer:

* **Free when off** — the trace hooks compile down to one attribute load
  plus one ``is None`` test, so a deployment built without an
  ``ObservabilityConfig`` produces *byte-identical* result rows (and hence
  identical perf digests) to a pre-observability build.  The
  ``obsv_overhead`` perf scenario pins this deterministically
  (``rows_match``); here we also re-run it twice and require identical
  digests.

* **Cheap when on** — with the ring buffer recording every message and the
  health collector snapshotting every replica, wall-clock overhead stays
  in the noise.  The paper target is <= 5%; the CI gate asserts a looser
  25% bound (shared-runner noise) while printing the measured ratio so the
  trend is visible in the logs.
"""

from __future__ import annotations

import time

from repro.obsv import ObservabilityConfig
from repro.perf import PERF_SCALES, run_scenario
from repro.runtime import DeploymentSpec
from repro.runtime.experiments import build_config

#: alternating A/B pairs; the per-mode minimum is compared, so one noisy
#: neighbour burst cannot fail (or pass) the gate on its own.
_PAIRS = 5

#: requests per timed run: ten times the smoke scale's own target, so each
#: run lasts about a tenth of a second rather than ten milliseconds and the
#: minimum of five settles instead of tracking scheduler jitter.
_TARGET_REQUESTS = 800

#: CI-safe ceiling for traced/untraced wall-clock.  The ring append and the
#: span contexts are a fixed cost per message, so the ratio grows as the
#: untraced path gets faster; it reads about 1.15 on a 2-core x86 box.
_MAX_OVERHEAD_RATIO = 1.25


def _timed_run(observe):
    config = build_config("flexi-bft", PERF_SCALES["smoke"].experiment)
    with DeploymentSpec(config, observe=observe).build() as deployment:
        started = time.perf_counter()
        result = deployment.run_until_target(_TARGET_REQUESTS)
        elapsed = time.perf_counter() - started
    assert result.consensus_safe and result.rsm_safe
    return elapsed


def test_scenario_rows_are_deterministic_and_matched(benchmark):
    first = benchmark.pedantic(
        lambda: run_scenario("obsv_overhead", "smoke"),
        rounds=1, iterations=1)
    second = run_scenario("obsv_overhead", "smoke")
    assert first["metrics_digest"] == second["metrics_digest"]

    summary = next(row for row in first["rows"] if row["mode"] == "summary")
    # Traced row (minus health_ columns) byte-identical to the untraced row.
    assert summary["rows_match"] is True
    assert summary["trace_events"] > 0
    assert summary["trace_dropped"] == 0
    # The ring saw the whole run: sends were recorded for every message.
    assert summary["count_msg_send"] > 0
    assert summary["count_kernel_run"] == 1
    assert summary["count_kernel_stop"] == 1
    # Causal tracing reconstructed request lifecycles: every completed
    # request yields a complete client→reply span, and the four-phase
    # latency decomposition is present for each reconstructed phase.
    assert summary["span_requests"] > 0
    assert summary["span_complete"] > 0
    assert summary["span_completeness"] >= 0.6  # closed-loop tail in flight
    for phase in ("network", "queueing", "crypto", "execution", "total"):
        assert summary[f"span_{phase}_p50_us"] >= 0.0
        assert (summary[f"span_{phase}_p99_us"]
                >= summary[f"span_{phase}_p50_us"])


def test_traced_wall_clock_overhead_is_bounded():
    observe = ObservabilityConfig(trace=True, collect_health=True)
    untraced, traced = [], []
    for _ in range(_PAIRS):
        untraced.append(_timed_run(None))
        traced.append(_timed_run(observe))
    ratio = min(traced) / min(untraced)
    print(f"\nobsv overhead: untraced {min(untraced):.4f}s, "
          f"traced {min(traced):.4f}s, ratio {ratio:.3f} "
          f"(gate {_MAX_OVERHEAD_RATIO:.2f})")
    assert ratio <= _MAX_OVERHEAD_RATIO, (
        f"tracing overhead ratio {ratio:.3f} exceeds "
        f"{_MAX_OVERHEAD_RATIO:.2f}")

"""Unit tests for the perf-trend collation and scale-qualified baselines."""

import json
import os

import pytest

from repro.perf import baseline_path, tolerances_for
from repro.perf.baseline import DEFAULT_TOLERANCES, LIVE_TOLERANCES
from repro.perf.trend import (
    collate_trend,
    find_bench_files,
    format_trend,
    load_points,
    trend_report,
)


def write_payload(path, scenario="fig1", scale="smoke", normalized_wall=1.0,
                  wall=0.1, recorded_at="2026-07-01T00:00:00Z",
                  digest="aaa"):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    payload = {
        "schema_version": 1,
        "scenario": scenario,
        "scale": scale,
        "wall_seconds": wall,
        "normalized_wall": normalized_wall,
        "events": 100,
        "metrics_digest": digest,
        "environment": {"recorded_at": recorded_at},
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


class TestTrendCollation:
    def test_groups_by_scenario_and_scale_sorted_by_timestamp(self, tmp_path):
        root = str(tmp_path)
        write_payload(os.path.join(root, "run2", "BENCH_fig1.json"),
                      normalized_wall=1.10, recorded_at="2026-07-02T00:00:00Z")
        write_payload(os.path.join(root, "run1", "BENCH_fig1.json"),
                      normalized_wall=1.00, recorded_at="2026-07-01T00:00:00Z")
        write_payload(os.path.join(root, "run3", "BENCH_fig1.json"),
                      normalized_wall=1.21, recorded_at="2026-07-03T00:00:00Z")
        write_payload(os.path.join(root, "run1", "BENCH_kernel.json"),
                      scenario="kernel", normalized_wall=2.0)
        trends = collate_trend(load_points(find_bench_files(root)))
        assert set(trends) == {("fig1", "smoke"), ("kernel", "smoke")}
        fig1 = trends[("fig1", "smoke")]
        assert [round(r.point.normalized_wall, 2) for r in fig1] == [1.0, 1.10, 1.21]

    def test_drift_is_computed_vs_previous_and_first(self, tmp_path):
        root = str(tmp_path)
        for index, wall in enumerate((1.0, 1.05, 1.1025)):
            write_payload(os.path.join(root, f"run{index}", "BENCH_fig1.json"),
                          normalized_wall=wall,
                          recorded_at=f"2026-07-0{index + 1}T00:00:00Z")
        rows = collate_trend(load_points(find_bench_files(root)))[("fig1", "smoke")]
        assert rows[0].vs_previous is None and rows[0].vs_first is None
        # Two compounding 5% regressions: each passes a 25% gate, but the
        # trend makes the cumulative 10.25% drift visible.
        assert rows[1].vs_previous == pytest.approx(0.05)
        assert rows[2].vs_previous == pytest.approx(0.05)
        assert rows[2].vs_first == pytest.approx(0.1025)

    def test_digest_change_is_flagged(self, tmp_path):
        root = str(tmp_path)
        write_payload(os.path.join(root, "a", "BENCH_fig1.json"),
                      recorded_at="2026-07-01T00:00:00Z", digest="one")
        write_payload(os.path.join(root, "b", "BENCH_fig1.json"),
                      recorded_at="2026-07-02T00:00:00Z", digest="two")
        rows = collate_trend(load_points(find_bench_files(root)))[("fig1", "smoke")]
        assert not rows[0].digest_changed
        assert rows[1].digest_changed

    def test_unreadable_and_foreign_files_are_skipped(self, tmp_path):
        root = str(tmp_path)
        write_payload(os.path.join(root, "ok", "BENCH_fig1.json"))
        junk = os.path.join(root, "junk", "BENCH_broken.json")
        os.makedirs(os.path.dirname(junk))
        with open(junk, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        with open(os.path.join(root, "junk", "notes.txt"), "w") as handle:
            handle.write("BENCH-looking but not matching")
        points = load_points(find_bench_files(root))
        assert [p.scenario for p in points] == ["fig1"]

    def test_report_formats_and_summarises(self, tmp_path):
        root = str(tmp_path)
        write_payload(os.path.join(root, "a", "BENCH_fig1.json"),
                      normalized_wall=1.0, recorded_at="2026-07-01T00:00:00Z")
        write_payload(os.path.join(root, "b", "BENCH_fig1.json"),
                      normalized_wall=1.2, recorded_at="2026-07-02T00:00:00Z")
        report = trend_report(root)
        assert "fig1 (smoke)" in report
        assert "+20.0%" in report
        assert "net drift: 20.0% slower" in report

    def test_empty_directory_reports_no_artifacts(self, tmp_path):
        assert "no BENCH_" in format_trend(collate_trend([]))
        assert "no BENCH_" in trend_report(str(tmp_path))


class TestTrendCli:
    def test_perf_trend_flag_prints_report(self, tmp_path, capsys):
        from repro.__main__ import main

        write_payload(os.path.join(str(tmp_path), "a", "BENCH_fig1.json"))
        assert main(["perf", "--trend", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "fig1 (smoke)" in out

    def test_perf_trend_rejects_non_directory(self, tmp_path):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["perf", "--trend", str(tmp_path / "missing")])


class TestScaleQualifiedBaselines:
    def test_smoke_keeps_the_legacy_unqualified_name(self, tmp_path):
        root = str(tmp_path)
        assert baseline_path(root, "fig1") == os.path.join(
            root, "BENCH_fig1.json")
        assert baseline_path(root, "fig1", "smoke") == os.path.join(
            root, "BENCH_fig1.json")

    def test_other_scales_get_scale_qualified_names(self, tmp_path):
        root = str(tmp_path)
        assert baseline_path(root, "fig1", "medium") == os.path.join(
            root, "BENCH_fig1.medium.json")
        assert baseline_path(root, "recovery", "large") == os.path.join(
            root, "BENCH_recovery.large.json")

    def test_update_and_check_roundtrip_at_medium_scale(self, tmp_path):
        from repro.__main__ import main

        out = tmp_path / "out"
        baselines = tmp_path / "baselines"
        # The kernel microbenchmark is cheap enough to run at medium scale.
        assert main(["perf", "--scenarios", "kernel", "--scale", "medium",
                     "--out", str(out),
                     "--update-baseline", str(baselines)]) == 0
        baseline_file = baselines / "BENCH_kernel.medium.json"
        assert baseline_file.exists()
        # This test is about the file name and the round trip, not about
        # speed: two back-to-back timings of a 30 ms loop differ by more
        # than the wall gate allows about one run in eight, so the recorded
        # wall is padded until only a digest mismatch could fail the check.
        baseline = json.loads(baseline_file.read_text())
        baseline["normalized_wall"] *= 10.0
        baseline_file.write_text(json.dumps(baseline))
        assert main(["perf", "--scenarios", "kernel", "--scale", "medium",
                     "--out", str(out),
                     "--check-baseline", str(baselines)]) == 0
        fresh = json.loads((out / "BENCH_kernel.medium.json").read_text())
        assert fresh["metrics_digest"] == baseline["metrics_digest"] != ""


class TestScenarioTolerances:
    def test_digestless_payloads_gate_on_raw_wall_clock(self):
        # Real-time scenarios are marked by their empty determinism digest
        # (see run_scenario), not by their name.
        assert tolerances_for({"metrics_digest": ""}) == LIVE_TOLERANCES
        assert tolerances_for({}) == LIVE_TOLERANCES
        gated = [t.metric for t in LIVE_TOLERANCES if t.gate]
        assert gated == ["wall_seconds"]

    def test_deterministic_payloads_keep_the_default_gate(self):
        assert tolerances_for({"metrics_digest": "abc123"}) == DEFAULT_TOLERANCES

    def test_live_gate_has_an_absolute_floor(self):
        from repro.perf import compare_result

        def payload(wall):
            return {"schema_version": 1, "scenario": "live_smoke",
                    "scale": "smoke", "wall_seconds": wall,
                    "normalized_wall": wall, "metrics_digest": ""}

        baseline = payload(0.07)
        # 10x the baseline but under the 2 s floor: a slow machine, not a
        # hang — must pass.
        slow = compare_result(payload(0.7), baseline, LIVE_TOLERANCES)
        assert slow.ok
        # Past both the 4x ceiling and the floor: a wedged loop — must fail.
        hung = compare_result(payload(25.0), baseline, LIVE_TOLERANCES)
        assert not hung.ok


class TestLiveSmokeScaleHandling:
    def test_bigger_suites_skip_the_fixed_size_live_scenario(self):
        from repro.perf import SUITES

        assert ("live_smoke", "smoke") in SUITES["smoke"]
        assert all(name != "live_smoke" for name, _ in SUITES["medium"])
        assert all(name != "live_smoke" for name, _ in SUITES["large"])

    def test_live_smoke_results_are_always_labeled_smoke(self):
        from repro.perf import SCENARIOS

        assert getattr(SCENARIOS["live_smoke"], "fixed_scale", None) == "smoke"

"""Unit tests for the determinism-digest harness: run, record, compare."""

import json
import os

import pytest

from repro.perf import (
    baseline_path,
    committed_baselines,
    compare_result,
    compare_to_dir,
    format_comparison,
    load_baseline,
    run_scenario,
    write_bench_json,
)
from repro.perf.baseline import (
    DIGEST_MISMATCH,
    INCOMPARABLE,
    MISSING_BASELINE,
    OK,
    SCHEMA_VERSION,
)


def payload(scenario="crypto", scale="smoke", digest="abc123"):
    return {
        "schema_version": SCHEMA_VERSION,
        "scenario": scenario,
        "scale": scale,
        "metrics_digest": digest,
        "rows": [],
    }


class TestCompareResult:
    def test_same_digest_passes(self):
        comparison = compare_result(payload(), payload())
        assert comparison.status == OK
        assert comparison.ok

    def test_missing_baseline_fails(self):
        comparison = compare_result(payload(), None)
        assert comparison.status == MISSING_BASELINE
        assert not comparison.ok
        assert "no committed baseline" in comparison.notes[0]

    def test_digest_mismatch_fails(self):
        comparison = compare_result(payload(digest="bbb"),
                                    payload(digest="aaa"))
        assert comparison.status == DIGEST_MISMATCH
        assert not comparison.ok

    def test_a_baseline_without_a_digest_pins_nothing_and_fails(self):
        comparison = compare_result(payload(), payload(digest=""))
        assert comparison.status == DIGEST_MISMATCH
        assert not comparison.ok

    def test_scale_mismatch_fails(self):
        comparison = compare_result(payload(scale="medium"),
                                    payload(scale="smoke"))
        assert comparison.status == INCOMPARABLE
        assert not comparison.ok

    def test_scenario_mismatch_fails(self):
        # A baseline copied to another scenario's file name is not that
        # scenario's baseline, even at the same digest.
        comparison = compare_result(payload(scenario="kernel"),
                                    payload(scenario="crypto"))
        assert comparison.status == INCOMPARABLE
        assert not comparison.ok

    def test_schema_version_mismatch_fails(self):
        baseline = payload()
        baseline["schema_version"] = SCHEMA_VERSION - 1
        comparison = compare_result(payload(), baseline)
        assert comparison.status == INCOMPARABLE
        assert not comparison.ok
        assert "schema_version mismatch" in comparison.notes[0]

    def test_format_comparison_names_scenario_scale_and_reason(self):
        comparison = compare_result(payload(scale="medium", digest="bbb"),
                                    payload(scale="medium", digest="aaa"))
        text = format_comparison(comparison)
        assert "DIGEST-MISMATCH" in text
        assert "crypto (medium)" in text
        assert "aaa != bbb" in text


class TestCompareToDir:
    def test_loads_baselines_by_scenario_name(self, tmp_path):
        write_bench_json(payload(scenario="crypto"), str(tmp_path))
        comparisons = compare_to_dir(
            [payload(scenario="crypto"), payload(scenario="kernel")],
            str(tmp_path))
        by_scenario = {c.scenario: c for c in comparisons}
        assert by_scenario["crypto"].ok
        assert by_scenario["kernel"].status == MISSING_BASELINE

    def test_load_baseline_missing_returns_none(self, tmp_path):
        assert load_baseline(str(tmp_path / "nope.json")) is None


class TestScaleQualifiedBaselines:
    def test_smoke_keeps_the_unqualified_name(self, tmp_path):
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

    def test_a_directory_lists_each_baseline_with_its_own_scale(self, tmp_path):
        root = str(tmp_path)
        for scenario, scale in (("fig1", "smoke"), ("fig1", "medium"),
                                ("sharding_scaleout", "large")):
            write_bench_json(payload(scenario=scenario, scale=scale), root)
        (tmp_path / "REFRESH.txt").write_text("fig1\n")
        assert committed_baselines(root) == [
            ("fig1", "smoke"), ("fig1", "medium"),
            ("sharding_scaleout", "large")]


class TestRunner:
    def test_crypto_scenario_runs_and_is_deterministic(self):
        first = run_scenario("crypto", "smoke")
        second = run_scenario("crypto", "smoke")
        assert first["metrics_digest"] == second["metrics_digest"] != ""
        assert first["rows"] == second["rows"]

    def test_a_payload_carries_no_wall_clock(self):
        result = run_scenario("kernel", "smoke")
        assert sorted(result) == ["metrics_digest", "rows", "scale",
                                  "scenario", "schema_version"]

    def test_unknown_scenario_and_scale_raise(self):
        with pytest.raises(KeyError):
            run_scenario("nope", "smoke")
        with pytest.raises(KeyError):
            run_scenario("crypto", "nope")

    def test_write_bench_json_roundtrips_through_comparison(self, tmp_path):
        result = run_scenario("crypto", "smoke")
        path = write_bench_json(result, str(tmp_path))
        assert path.endswith("BENCH_crypto.json")
        stored = load_baseline(path)
        assert stored == result
        assert compare_result(result, stored).ok


class TestPerfCli:
    def test_update_then_check_baseline_passes(self, tmp_path):
        from repro.__main__ import main

        out = tmp_path / "out"
        baselines = tmp_path / "baselines"
        assert main(["perf", "--scenarios", "crypto", "kernel",
                     "--out", str(out),
                     "--update-baseline", str(baselines)]) == 0
        assert (out / "BENCH_crypto.json").exists()
        assert (baselines / "BENCH_kernel.json").exists()
        assert main(["perf", "--scenarios", "crypto", "kernel",
                     "--out", str(out),
                     "--check-baseline", str(baselines)]) == 0

    def test_check_against_missing_baseline_fails(self, tmp_path):
        from repro.__main__ import main

        assert main(["perf", "--scenarios", "crypto",
                     "--out", str(tmp_path / "out"),
                     "--check-baseline", str(tmp_path / "empty")]) == 1

    def test_check_against_tampered_digest_fails(self, tmp_path):
        from repro.__main__ import main

        out = tmp_path / "out"
        baselines = tmp_path / "baselines"
        assert main(["perf", "--scenarios", "crypto", "--out", str(out),
                     "--update-baseline", str(baselines)]) == 0
        path = baselines / "BENCH_crypto.json"
        stored = json.load(open(path, encoding="utf-8"))
        stored["metrics_digest"] = "0" * 64
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(stored, handle)
        assert main(["perf", "--scenarios", "crypto", "--out", str(out),
                     "--check-baseline", str(baselines)]) == 1

    def test_combined_flags_check_old_baselines_and_keep_them_on_failure(
            self, tmp_path):
        from repro.__main__ import main

        out = tmp_path / "out"
        baselines = tmp_path / "baselines"
        assert main(["perf", "--scenarios", "crypto", "--out", str(out),
                     "--update-baseline", str(baselines)]) == 0
        path = baselines / "BENCH_crypto.json"
        stored = json.load(open(path, encoding="utf-8"))
        stored["metrics_digest"] = "0" * 64
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(stored, handle)
        # Both flags on one directory: the check must run against the old
        # (tampered) baseline — not a freshly written copy of itself — and a
        # failing check must not overwrite that baseline.
        assert main(["perf", "--scenarios", "crypto", "--out", str(out),
                     "--check-baseline", str(baselines),
                     "--update-baseline", str(baselines)]) == 1
        kept = json.load(open(path, encoding="utf-8"))
        assert kept["metrics_digest"] == "0" * 64

    def test_checking_a_directory_checks_every_baseline_at_its_own_scale(
            self, tmp_path, monkeypatch, capsys):
        from repro.__main__ import main

        baselines = tmp_path / "baselines"
        # The kernel microbenchmark is cheap enough to run at medium scale.
        assert main(["perf", "--scenarios", "kernel", "--scale", "medium",
                     "--update-baseline", str(baselines)]) == 0
        assert main(["perf", "--scenarios", "crypto",
                     "--update-baseline", str(baselines)]) == 0
        assert sorted(os.listdir(baselines)) == [
            "BENCH_crypto.json", "BENCH_kernel.medium.json"]
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        capsys.readouterr()
        assert main(["perf", "--check-baseline", str(baselines)]) == 0
        out = capsys.readouterr().out
        assert "crypto (smoke)" in out and "kernel (medium)" in out
        # A check writes nothing unless --out is given.
        assert os.listdir(cwd) == []
        path = baselines / "BENCH_kernel.medium.json"
        stored = json.loads(path.read_text())
        stored["metrics_digest"] = "0" * 64
        path.write_text(json.dumps(stored))
        assert main(["perf", "--check-baseline", str(baselines)]) == 1
        assert main(["perf", "--check-baseline", str(baselines),
                     "--scale", "smoke"]) == 0

    def test_checking_a_directory_without_baselines_is_an_error(self, tmp_path):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["perf", "--check-baseline", str(tmp_path)])
        with pytest.raises(SystemExit):
            main(["perf", "--check-baseline", str(tmp_path / "missing")])

    def test_list_shows_fourteen_scenarios_and_three_scales(self, capsys):
        from repro.__main__ import main

        assert main(["perf", "--list"]) == 0
        scenarios, scales = capsys.readouterr().out.strip().splitlines()
        assert len(scenarios.split(":")[1].split(",")) == 14
        assert scales.split(":")[1].split() == ["large,", "medium,", "smoke"]

    def test_unknown_scenario_exits_with_error(self, tmp_path):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["perf", "--scenarios", "bogus", "--out", str(tmp_path)])

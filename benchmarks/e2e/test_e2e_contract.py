"""Contract test of the repo benchmark (tier-1, smoke sizes).

Runs every workload with ``--quick`` in both modes and holds the output to
BENCHMARK.json: every declared metric printed once with a finite value and
its unit, nothing undeclared, names within the contract's alphabet, the
harness on the stable public surface only, a failed check turned into a
non-zero exit, and no result out of a checkout that lacks the program.
"""

from __future__ import annotations

import ast
import json
import math
import re
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = HERE / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]
SECTIONS = {0: "end_to_end", 1: "per_layer"}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
FORBIDDEN = ("repro.perf", "repro.runtime.experiments",
             "repro.runtime.warmcache")


def _quick(workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--quick"],
        capture_output=True, text=True, timeout=120)


@pytest.fixture(scope="module")
def runs() -> dict:
    jobs = [(workload, trace) for workload in WORKLOADS for trace in SECTIONS]
    with ThreadPoolExecutor(max_workers=2) as pool:
        done = list(pool.map(lambda job: _quick(*job), jobs))
    return dict(zip(jobs, done))


def test_spec_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    for entry in SPEC["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [m["name"] for section in SECTIONS.values() for m in SPEC[section]]
    names += WORKLOADS
    assert len(names) == len(set(names)), "a name is used twice"
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.fullmatch(metric["name"]), metric["name"]
        assert UNIT.fullmatch(metric["unit"]), metric["unit"]
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", sorted(SECTIONS))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_printed_once(runs, workload, trace):
    done = runs[(workload, trace)]
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    declared = {m["name"]: m for m in SPEC[SECTIONS[trace]]}
    assert set(result["metrics"]) == set(declared), "undeclared or missing"
    for name, entry in result["metrics"].items():
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == declared[name]["unit"]
        assert math.isfinite(entry["value"]), name
        printed = [line for line in lines[:-1] if line.split()[:1] == [name]]
        assert len(printed) == 1, f"{name} printed {len(printed)} times"
        assert printed[0].split()[-1] == entry["unit"]
    if trace == 0:
        for name, entry in result["metrics"].items():
            assert entry["value"] > 0, f"{name} must never read 0"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_times_add_up_to_the_total(runs, workload):
    metrics = json.loads(
        runs[(workload, 1)].stdout.strip().splitlines()[-1])["metrics"]
    layers = sum(entry["value"] for name, entry in metrics.items()
                 if name.startswith("host_us_per_tx.")
                 and name != "host_us_per_tx.total")
    total = metrics["host_us_per_tx.total"]["value"]
    assert total > 0
    assert abs(layers - total) <= 0.02 * total
    bypassed = {"live_tcp_closed": ("sim",)}.get(
        workload, ("realtime", "net.wire", "net.tcp"))
    for layer in bypassed:
        assert metrics[f"host_us_per_tx.{layer}"]["value"] == 0.0, layer


def test_harness_stays_on_the_stable_surface():
    for source in sorted(HERE.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            for module in modules:
                assert not module.startswith(FORBIDDEN), (
                    f"{source.name} imports {module}")


def test_failed_check_exits_non_zero_without_a_result(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(HERE))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import run
    import workloads

    def broken(workload, seed, scale):
        raise workloads.CheckFailed("consensus_safe is False")

    monkeypatch.setattr(workloads, "run_repetition", broken)
    monkeypatch.setattr(run, "_measure_setup", lambda args: 0.1)
    code = run.main(["--workload", "sim_openloop", "--seconds", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert "consensus_safe is False" in captured.err
    assert '"correct"' not in captured.out


def test_no_result_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

"""Determinism digests: named deterministic scenarios and their baselines.

Every scenario — figure experiments and microbenchmarks of the simulation
substrate — returns flat rows of *simulated* results, and the digest over
those rows is committed as ``benchmarks/baselines/BENCH_<scenario>.json``.
A change that alters any simulated result changes a digest and has to
declare it; a change that only makes the code faster or smaller leaves
every digest byte-identical.  Speed itself is measured by the repo
benchmark (``BENCHMARK.json`` + ``benchmarks/e2e/``), never here.

Entry points:

* ``python -m repro perf`` — run every scenario at smoke scale and print
  its digest.
* ``python -m repro perf --scenarios fig1 --scale medium`` — one scenario at
  an explicit scale.
* ``--check-baseline benchmarks/baselines/`` — compare fresh digests with
  the committed ones and exit non-zero on any difference (the CI check);
  without ``--scenarios`` every baseline in the directory is checked at its
  own scale.
* ``--update-baseline benchmarks/baselines/`` — refresh the committed
  baselines after an intentional behaviour change.
"""

from .baseline import (
    BaselineComparison,
    baseline_path,
    committed_baselines,
    compare_result,
    compare_to_dir,
    format_comparison,
    format_result,
    load_baseline,
    run_scenario,
    write_bench_json,
)
from .scenarios import PERF_SCALES, SCENARIOS, PerfScale, metrics_digest

__all__ = [
    "BaselineComparison",
    "baseline_path",
    "committed_baselines",
    "compare_result",
    "compare_to_dir",
    "format_comparison",
    "format_result",
    "load_baseline",
    "run_scenario",
    "write_bench_json",
    "PERF_SCALES",
    "SCENARIOS",
    "PerfScale",
    "metrics_digest",
]

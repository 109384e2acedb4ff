"""Repeatability of the benchmark: do two sets of runs of one code agree?

    python3 benchmarks/e2e/repeat.py --out benchmarks/e2e/REPEATABILITY.md

Runs every workload ``--runs`` times per set (seeds 1..N, tracing off), for
``--sets`` sets, the workloads in forward order in odd sets and in reverse
order in even ones.  For each end-to-end metric of each workload it prints
every set's median and quartiles (``statistics.quantiles(values, n=4)``),
the spread between the quartiles as a share of the median, and how much
worse the last set's median is than the first's — both against the metric's
bound in BENCHMARK.json.  On the simulated workloads the model metrics of
one seed must agree exactly between sets.

Exits non-zero when a spread (``setup_s`` excepted, as in the acceptance
procedure) or a drift exceeds its bound, or a model metric moved.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
#: metrics read off the simulated clock; exact for one seed on sim_* runs.
MODEL_METRICS = ("latency_p50_ms", "latency_mean_ms", "model_tx_s",
                 "served_share")


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def quartiles(values: list) -> tuple:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def worse_by(first: float, last: float, better: str) -> float:
    """How much worse ``last`` is than ``first``, as a share of ``first``."""
    change = (last - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10,
                        help="runs (seeds) per set and workload")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--out", help="also write the report to this file")
    args = parser.parse_args(argv)

    #: values[set][workload][metric] -> one value per seed
    values = []
    for index in range(args.sets):
        order = args.workloads if index % 2 == 0 else args.workloads[::-1]
        collected = {}
        for workload in order:
            runs = [run_once(workload, seed, args.seconds)
                    for seed in range(1, args.runs + 1)]
            collected[workload] = {name: [run[name] for run in runs]
                                   for name in runs[0]}
            print(f"set {index + 1}: {workload} done", file=sys.stderr)
        values.append(collected)

    lines = [
        "# Repeatability of the benchmark",
        "",
        f"`python3 benchmarks/e2e/repeat.py --runs {args.runs} --sets "
        f"{args.sets} --seconds {args.seconds}`: {args.sets} sets of "
        f"{args.runs} runs per workload (seeds 1..{args.runs}, tracing off), "
        "same code, workloads in reverse order in even sets.  `spread` is "
        "(q3 - q1) / median over a set's runs; `drift` is how much worse the "
        "last set's median is than the first's (negative: better).  Both are "
        "shown as a share of the metric's bound; at most 1.00 passes, and "
        "below 0.33 the metric is steady.",
        "",
    ]
    breaches = []
    for workload in args.workloads:
        lines += [f"## {workload}", "",
                  "| metric | bound | set | q1 | median | q3 | spread | "
                  "spread/bound | drift | drift/bound |",
                  "|---|---|---|---|---|---|---|---|---|---|"]
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for index, collected in enumerate(values):
                q1, median, q3 = quartiles(collected[workload][name])
                medians.append(median)
                spread = (q3 - q1) / median
                drift = (worse_by(medians[0], median, metric["better"])
                         if index else 0.0)
                lines.append(
                    f"| {name} | {bound:g} | {index + 1} | {q1:.6g} | "
                    f"{median:.6g} | {q3:.6g} | {spread:.4f} | "
                    f"{spread / bound:.2f} | {drift:+.4f} | "
                    f"{drift / bound:+.2f} |")
                if spread > bound and name != "setup_s":
                    breaches.append(f"{workload} {name}: spread {spread:.4f} "
                                    f"in set {index + 1} exceeds {bound:g}")
                if drift > bound:
                    breaches.append(f"{workload} {name}: set {index + 1} is "
                                    f"{drift:.4f} worse than set 1, bound "
                                    f"{bound:g}")
        lines.append("")
        if workload.startswith("sim_"):
            moved = [name for name in MODEL_METRICS
                     if any(collected[workload][name]
                            != values[0][workload][name]
                            for collected in values[1:])]
            lines += ["Model metrics of each seed identical across sets: "
                      + ("yes" if not moved else f"NO ({', '.join(moved)})"),
                      ""]
            breaches += [f"{workload} {name}: model metric differs between "
                         "sets for the same seed" for name in moved]
    lines += ["## Verdict", ""]
    lines += [f"- BREACH: {breach}" for breach in breaches] or [
        "Every spread and every drift is within its bound."]
    report = "\n".join(lines) + "\n"
    print(report)
    if args.out:
        Path(args.out).write_text(report)
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())

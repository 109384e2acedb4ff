"""Alternating parent/change pairs of the repo benchmark, one JSON line each.

    python3 benchmarks/evidence/PR16/pairs.py PARENT_CHECKOUT CHANGE_CHECKOUT \
        --workload sim_recovery --seeds 11 12 13 --trace 0 >> pairs.jsonl

Each pair runs ``benchmarks/e2e/run.py --workload W --seed S --trace T`` once
in each checkout with the same seed; even pairs run the parent first, odd
pairs the change.  ``summary.py`` turns the lines into the tables of
README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys


def run(checkout: str, workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        cwd=checkout, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {"failed": result["failed"], "attempted": result["attempted"],
            **{name: entry["value"]
               for name, entry in result["metrics"].items()}}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    for index, seed in enumerate(args.seeds):
        order = (("parent", args.parent), ("change", args.change))
        if index % 2:
            order = order[::-1]
        pair = {"workload": args.workload, "seed": seed, "trace": args.trace,
                "first": order[0][0]}
        for side, checkout in order:
            pair[side] = run(checkout, args.workload, seed, args.trace)
        print(json.dumps(pair), flush=True)


if __name__ == "__main__":
    main()

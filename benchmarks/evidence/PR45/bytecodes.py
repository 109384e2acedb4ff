"""Count interpreted bytecodes per transaction, one JSON line per unit.

    python3 benchmarks/evidence/PR45/bytecodes.py CHECKOUT [--units] [--gate]

Runs against the ``src/`` and ``benchmarks/e2e/`` of ``CHECKOUT`` (a parent
clone or this tree).  ``--units`` counts the driving call of five units of
``benchmarks/e2e/workloads.py`` (seed 7), each on its second, warm run;
``--gate`` counts the deployment run of the tracing overhead gate
(``benchmarks/test_obsv_overhead.py``: flexi-bft at smoke scale, 800
requests) untraced and traced, after one warm-up run of each, and prints
their ratio.  Counting uses
``sys.settrace`` with ``f_trace_opcodes``, so it sees Python bytecodes only
(C calls count as the one opcode that makes them) and runs ~50x slower than
an untraced run; the counts are deterministic for a given interpreter.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

#: (workload, label, scale) of every counted unit.
UNITS = (
    ("sim_closed", "pbft/closed", 0.1),
    ("sim_closed", "minbft/closed", 0.1),
    ("sim_closed", "flexi-bft/closed", 0.1),
    ("sim_recovery", "pbft/recovery/7001", 0.2),
    ("sim_openloop", "flexi-bft/open/9000", 0.1),
)
SEED = 7
GATE_REQUESTS = 800


class OpcodeCounter:
    """A ``sys.settrace`` hook that counts opcode events while installed."""

    def __init__(self) -> None:
        self.count = 0

    def _local(self, frame, event, arg):
        if event == "opcode":
            self.count += 1
        return self._local

    def _global(self, frame, event, arg):
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return self._local

    def run(self, call):
        sys.settrace(self._global)
        try:
            return call()
        finally:
            sys.settrace(None)


def count_units() -> None:
    from workloads import WORKLOADS, run_unit

    for workload, label, scale in UNITS:
        for _ in range(2):  # the second run is the warm one
            unit = next(unit for unit in WORKLOADS[workload].units(SEED, scale)
                        if unit.label == label)
            counter = OpcodeCounter()
            result = run_unit(unit, runner=counter.run)
        print(json.dumps({
            "unit": f"{workload}:{label}", "scale": scale, "seed": SEED,
            "completed": result.completed, "bytecodes": counter.count,
            "bytecodes_per_tx": round(counter.count / result.completed)}),
            flush=True)


def count_gate() -> None:
    from repro.obsv import ObservabilityConfig
    from repro.perf import PERF_SCALES
    from repro.runtime import DeploymentSpec
    from repro.runtime.experiments import build_config

    counts = {}
    modes = (("untraced", None),
             ("traced", ObservabilityConfig(trace=True, collect_health=True)))
    for _ in range(2):  # both modes once to warm up, then both counted
        for mode, observe in modes:
            config = build_config("flexi-bft",
                                  PERF_SCALES["smoke"].experiment)
            with DeploymentSpec(config, observe=observe).build() as deployment:
                counter = OpcodeCounter()
                counter.run(
                    lambda: deployment.run_until_target(GATE_REQUESTS))
            counts[mode] = counter.count
    print(json.dumps({
        "unit": "obsv_overhead_gate", "requests": GATE_REQUESTS, **counts,
        "ratio": round(counts["traced"] / counts["untraced"], 4)}),
        flush=True)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("checkout")
    parser.add_argument("--units", action="store_true")
    parser.add_argument("--gate", action="store_true")
    args = parser.parse_args()
    root = os.path.abspath(args.checkout)
    sys.path[:0] = [os.path.join(root, "src"),
                    os.path.join(root, "benchmarks", "e2e")]
    if args.units:
        count_units()
    if args.gate:
        count_gate()


if __name__ == "__main__":
    main()

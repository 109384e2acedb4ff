"""Count interpreted bytecodes per transaction, one JSON line per unit.

    python3 benchmarks/evidence/PR46/bytecodes.py CHECKOUT [--units] [--gate]
        [--per-function]

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

``--per-function`` (with ``--gate``) also counts the opcodes of each code
object and prints, after the gate line, one JSON line per function whose
count differs between the traced and the untraced run, largest
traced-minus-untraced difference first.  A function is named by its file
(relative to ``CHECKOUT``, or its base name outside it) and qualified
name; the differences sum to the gate's traced-minus-untraced total.
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
    """A ``sys.settrace`` hook that counts opcode events while installed.

    With ``per_function`` it also keeps a count per code object in
    :attr:`functions`.
    """

    def __init__(self, per_function: bool = False) -> None:
        self.count = 0
        self.functions: dict = {}
        self._per_function = per_function

    def _local(self, frame, event, arg):
        if event == "opcode":
            self.count += 1
        return self._local

    def _local_per_function(self, frame, event, arg):
        if event == "opcode":
            self.count += 1
            code = frame.f_code
            self.functions[code] = self.functions.get(code, 0) + 1
        return self._local_per_function

    def _global(self, frame, event, arg):
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        if self._per_function:
            return self._local_per_function
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


def function_name(code, root: str) -> str:
    """``file:qualname`` of a code object: a file under ``root`` relative to
    it, any other file (the standard library) by its base name."""
    filename = code.co_filename
    if filename.startswith(root + os.sep):
        filename = os.path.relpath(filename, root)
    elif os.path.isabs(filename):
        filename = os.path.basename(filename)
    return f"{filename}:{code.co_qualname}"


def print_per_function(functions: dict, root: str) -> None:
    """Traced-minus-untraced opcodes per function, largest first."""
    by_name: dict = {}
    for mode, counts in functions.items():
        for code, count in counts.items():
            cell = by_name.setdefault(function_name(code, root),
                                      {"untraced": 0, "traced": 0})
            cell[mode] += count
    rows = [{"function": name, **cell,
             "delta": cell["traced"] - cell["untraced"]}
            for name, cell in by_name.items()
            if cell["traced"] != cell["untraced"]]
    rows.sort(key=lambda row: (-row["delta"], row["function"]))
    for row in rows:
        print(json.dumps(row), flush=True)


def count_gate(root: str, per_function: bool = False) -> None:
    from repro.obsv import ObservabilityConfig
    from repro.perf import PERF_SCALES
    from repro.runtime import DeploymentSpec
    from repro.runtime.experiments import build_config

    counts = {}
    functions = {}
    modes = (("untraced", None),
             ("traced", ObservabilityConfig(trace=True, collect_health=True)))
    for _ in range(2):  # both modes once to warm up, then both counted
        for mode, observe in modes:
            config = build_config("flexi-bft",
                                  PERF_SCALES["smoke"].experiment)
            with DeploymentSpec(config, observe=observe).build() as deployment:
                counter = OpcodeCounter(per_function)
                counter.run(
                    lambda: deployment.run_until_target(GATE_REQUESTS))
            counts[mode] = counter.count
            functions[mode] = counter.functions
    print(json.dumps({
        "unit": "obsv_overhead_gate", "requests": GATE_REQUESTS, **counts,
        "ratio": round(counts["traced"] / counts["untraced"], 4)}),
        flush=True)
    if per_function:
        print_per_function(functions, root)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("checkout")
    parser.add_argument("--units", action="store_true")
    parser.add_argument("--gate", action="store_true")
    parser.add_argument("--per-function", action="store_true",
                        help="with --gate: traced-minus-untraced opcodes "
                             "per function")
    args = parser.parse_args()
    root = os.path.abspath(args.checkout)
    sys.path[:0] = [os.path.join(root, "src"),
                    os.path.join(root, "benchmarks", "e2e")]
    if args.units:
        count_units()
    if args.gate:
        count_gate(root, args.per_function)


if __name__ == "__main__":
    main()

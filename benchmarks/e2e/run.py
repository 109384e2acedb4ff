"""The repo benchmark: one command, every metric by name and unit.

    python3 benchmarks/e2e/run.py                       # all four workloads
    python3 benchmarks/e2e/run.py --workload sim_closed --seed 3 --trace 0
    python3 benchmarks/e2e/run.py --workload sim_closed --traced --quick

With ``--workload`` the process runs that one workload and prints, as the
last line of its standard output, one JSON object ``{"correct", "attempted",
"failed", "metrics"}`` — the end-to-end metrics with ``--trace 0`` (tracing
off, timed), the per-layer metrics with ``--trace 1`` (a separate traced
run).  Without it, each workload runs in its own subprocess, one after
another, in both modes, and everything is printed as one table.

A failed correctness check prints the reason on stderr and exits non-zero
without a result line.  BENCHMARK.json at the repository root names every
metric printed here; README.md in this directory defines them.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
OUT_DIR = HERE / "out"

#: repetition scales: the traced run is a quarter of a repetition, --quick
#: a smoke-sized one for the contract test.
TRACED_SCALE = 0.25
QUICK_SCALE = 0.02
#: fresh interpreters timed from spawn to "ready for the first timed call".
SETUP_SAMPLES = 5
PROBE_SECONDS = 0.4


def load_spec() -> dict:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def _import_program():
    """Put ``src/`` on the path and import the harness modules."""
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        raise SystemExit(f"no program to measure: {source / 'repro'} is missing")
    for path in (str(source), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads

    return workloads


# --------------------------------------------------------------- timed run
def _summarise_repetition(wl, results) -> dict:
    """One repetition's end-to-end values."""
    completed = sum(r.completed for r in results)
    return {
        "tx_per_host_s": completed / sum(r.host_s for r in results),
        "latency_p50_ms": wl.latency_ms(
            results, lambda ms: wl.percentile(ms, 0.5)),
        "latency_mean_ms": wl.latency_ms(results, statistics.fmean),
        "model_tx_s": wl.model_tx_s(results),
        "served_share": completed / sum(r.offered for r in results),
    }


def _measure_setup(args) -> float:
    """Wall time of a fresh interpreter doing everything before the clock
    starts: imports, building one repetition's deployments, the warm-up."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed)]
    if args.quick:
        command.append("--quick")
    start = time.perf_counter()
    subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def _warm_up(wl, workload, args) -> None:
    """Fill caches and finish lazy imports; what ``setup_s`` pays for."""
    if not args.quick:
        wl.run_repetition(workload, args.seed, QUICK_SCALE)


def run_timed(wl, workload, args) -> dict:
    scale = QUICK_SCALE if args.quick else 1.0
    repetitions = (2 if args.quick
                   else max(2, round(args.seconds / workload.repetition_seconds)))
    setups = [_measure_setup(args)
              for _ in range(1 if args.quick else SETUP_SAMPLES)]
    _warm_up(wl, workload, args)
    runs = [wl.run_repetition(workload, args.seed, scale)
            for _ in range(repetitions)]
    if workload.backend == "sim":
        rows = {wl.model_rows(results) for results in runs}
        if len(rows) != 1:
            raise wl.CheckFailed(
                f"{workload.name}: simulated rows differ between repetitions "
                f"of seed {args.seed}")
    samples = min(len(r.latencies_ms) for results in runs for r in results)
    if not args.quick and samples < 1_000:
        raise wl.CheckFailed(
            f"{workload.name}: {samples} latency samples in a deployment; "
            "p99 needs at least 1000 to have ten beyond it")
    per_repetition = [_summarise_repetition(wl, results) for results in runs]
    values = {name: statistics.median([rep[name] for rep in per_repetition])
              for name in per_repetition[0]}
    values["setup_s"] = statistics.median(setups)
    values["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(f"# {workload.name}: {repetitions} repetitions, "
          f"{len(runs[0])} deployments each, at least {samples} latency "
          f"samples per deployment, {len(setups)} set-ups")
    return {
        "values": values,
        "attempted": sum(r.offered for results in runs for r in results),
        "failed": sum(r.failed for results in runs for r in results),
    }


# -------------------------------------------------------------- traced run
def _counter_metrics(results) -> dict:
    """Per-layer values computed from an untraced repetition's counters."""
    def total(key):
        return sum(r.counters.get(key, 0) for r in results)

    def mean(key):
        return total(key) / len(results)

    completed = sum(r.completed for r in results)
    offered = sum(r.offered for r in results)
    host_s = sum(r.host_s for r in results)
    events = total("events")
    lookups = total("verify_hits") + total("verify_misses")
    due = total("due")
    return {
        "sim.events_per_tx": events / completed,
        "sim.host_us_per_event": host_s * 1e6 / events,
        "sim.pool_util_primary": mean("pool_util"),
        "sim.pool_queue_wait_us": mean("pool_queue_wait_us"),
        "trusted.device_util": mean("device_util"),
        "trusted.accesses_per_tx": total("trusted_accesses") / completed,
        "net.msgs_per_tx": total("messages") / completed,
        "crypto.verify_hit_rate": (total("verify_hits") / lookups
                                   if lookups else 0.0),
        "protocols.reqs_per_batch": completed / max(1, total("batches")),
        "protocols.checkpoints": float(min(r.counters["checkpoints"]
                                           for r in results)),
        "protocols.view_changes_started": float(total("view_changes_started")),
        "protocols.view_changes_completed": float(
            total("view_changes_completed")),
        "recovery.wal_syncs_per_tx": total("wal_syncs") / completed,
        "recovery.transfer_batches": float(total("transfer_batches")),
        "workload.offered_share": offered / due if due else 0.0,
        "workload.shed_share": total("shed") / offered,
        "workload.abandoned_share": total("abandoned") / offered,
        "workload.peak_resident": float(max(
            r.counters.get("peak_resident", 0) for r in results)),
        "realtime.loop_busy_share": sum(r.cpu_s for r in results) / host_s,
    }


def run_traced(wl, workload, args) -> dict:
    import probes
    import tracing

    full_scale = QUICK_SCALE if args.quick else 1.0
    traced_scale = QUICK_SCALE if args.quick else TRACED_SCALE
    _warm_up(wl, workload, args)
    full = wl.run_repetition(workload, args.seed, full_scale)
    untraced = (full if traced_scale == full_scale
                else wl.run_repetition(workload, args.seed, traced_scale))

    tracer = tracing.Tracer(
        kernel_layer="sim" if workload.backend == "sim" else "realtime")
    tracer.calibrate(5_000 if args.quick else 50_000)
    missing = tracer.install()
    try:
        traced = [wl.run_unit(unit, runner=tracer.run)
                  for unit in workload.units(args.seed, traced_scale)]
    finally:
        tracer.uninstall()
    for target in missing:
        print(f"trace target missing, not traced: {target}", file=sys.stderr)
    if (workload.backend == "sim"
            and wl.model_rows(traced) != wl.model_rows(untraced)):
        raise wl.CheckFailed(
            f"{workload.name}: tracing changed a simulated value")

    completed = sum(r.completed for r in traced)
    layers = tracer.layer_self_ns()
    values = {f"host_us_per_tx.{layer}": ns / 1e3 / completed
              for layer, ns in layers.items()}
    values["host_us_per_tx.total"] = tracer.total_ns / 1e3 / completed
    outside = (tracer.kernel_residual_ns()
               + tracer.cells[("other", "harness")][1])
    values["trace.coverage"] = 1.0 - outside / tracer.total_ns
    values["trace.overhead_ratio"] = (
        (sum(r.host_s for r in traced) / completed)
        / (sum(r.host_s for r in untraced)
           / sum(r.completed for r in untraced)))
    values["crypto.signs_per_tx"] = (
        tracer.calls(tracing.COUNTED["signs"]) / completed)
    values["crypto.verifies_per_tx"] = (
        tracer.calls(tracing.COUNTED["verifies"]) / completed)
    values["net.wire.frames_per_tx"] = (
        tracer.calls(tracing.COUNTED["frames"]) / completed)
    values["net.wire.bytes_per_tx"] = tracer.frame_bytes / completed
    values.update(_counter_metrics(full))
    values["workload.latency_p99_ms"] = wl.latency_ms(
        full, lambda ms: wl.percentile(ms, 0.99))
    values.update(workload.extras(full))
    values.update(probes.run_probes(
        args.seed, 0.01 if args.quick else PROBE_SECONDS))

    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(
        str(OUT_DIR / f"{workload.name}-seed{args.seed}"),
        {"workload": workload.name, "seed": args.seed,
         "scale": traced_scale, "completed": completed,
         "missing_targets": missing})
    return {
        "values": values,
        "attempted": sum(r.offered for r in full),
        "failed": sum(r.failed for r in full),
    }


# ------------------------------------------------------------------ output
def _emit(spec: dict, section: str, outcome: dict) -> None:
    """Human-readable lines, then the contract's JSON object, last."""
    declared = {metric["name"]: metric["unit"] for metric in spec[section]}
    values = outcome["values"]
    unnamed = sorted(set(values) - set(declared))
    if unnamed:
        raise SystemExit(f"metrics not named in BENCHMARK.json: {unnamed}")
    metrics = {}
    for name, unit in declared.items():
        if name not in values and section == "end_to_end":
            raise SystemExit(f"end-to-end metric {name} was not measured")
        # A per-layer metric reads 0 on a workload that bypasses its layer.
        value = float(values.get(name, 0.0))
        if not math.isfinite(value):
            raise SystemExit(f"metric {name} is not finite: {value}")
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:44s} {value:16.6f} {unit}")
    print(json.dumps({"correct": True, "attempted": outcome["attempted"],
                      "failed": outcome["failed"], "metrics": metrics}))


def run_one(args) -> int:
    spec = load_spec()
    wl = _import_program()
    try:
        workload = wl.WORKLOADS[args.workload]
    except KeyError:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from "
                         f"{', '.join(wl.WORKLOADS)}")
    try:
        if args.setup_only:
            scale = QUICK_SCALE if args.quick else 1.0
            for unit in workload.units(args.seed, scale):
                unit.spec.build().close()
            _warm_up(wl, workload, args)
            return 0
        if args.trace:
            _emit(spec, "per_layer", run_traced(wl, workload, args))
        else:
            _emit(spec, "end_to_end", run_timed(wl, workload, args))
    except wl.CheckFailed as failure:
        print(f"correctness check failed: {failure}", file=sys.stderr)
        return 1
    return 0


def run_all(args) -> int:
    """Every workload, alone in its own subprocess, one after another."""
    spec = load_spec()
    table: dict = {}
    names = [w["name"] for w in spec["workloads"]]
    for name in names:
        for trace in ("0", "1"):
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", trace]
            if args.quick:
                command.append("--quick")
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            if done.returncode != 0:
                print(f"{name} (--trace {trace}) exited {done.returncode}",
                      file=sys.stderr)
                return done.returncode
            result = json.loads(done.stdout.strip().splitlines()[-1])
            for metric, entry in result["metrics"].items():
                table.setdefault(metric, {})[name] = entry
    units = {m["name"]: m["unit"] for section in ("end_to_end", "per_layer")
             for m in spec[section]}
    print(f"{'metric':44s} {'unit':8s} " + " ".join(f"{n:>16s}" for n in names))
    for metric, unit in units.items():
        cells = " ".join(f"{table[metric][n]['value']:16.4f}" for n in names)
        print(f"{metric:44s} {unit:8s} {cells}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this workload only and print "
                        "the contract's JSON result as the last line")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time; ten seconds per repetition "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--quick", action="store_true",
                        help="smoke-sized run for the contract test")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point: ``python -m repro`` (or the ``repro`` script).

Runs any figure experiment from :data:`repro.runtime.ALL_EXPERIMENTS` and
prints its row table, or checks the determinism digests::

    python -m repro list
    python -m repro run figure6_throughput
    python -m repro run figure_recovery --scale paper
    python -m repro run figure6_batching --protocols pbft flexi-bft
    python -m repro live --protocol flexibft
    python -m repro live --protocol pbft --clients 16 --requests 200
    python -m repro live --backend tcp --sharded
    python -m repro live --backend tcp --sharded --shards 4 --protocol minbft
    python -m repro live --backend tcp --trace trace.jsonl
    python -m repro trace analyze trace.jsonl
    python -m repro trace analyze trace.jsonl --min-completeness 0.95
    python -m repro matrix list
    python -m repro matrix run smoke --results matrix-results
    python -m repro matrix run curves --results matrix-results --csv curves.csv
    python -m repro matrix run --protocols minbft flexi-bft --clients 20 60 120
    python -m repro matrix collate --results matrix-results --csv curves.csv
    python -m repro perf --scenarios fig1 obsv_overhead --scale medium
    python -m repro perf --check-baseline benchmarks/baselines
    python -m repro perf --scenarios fig1 --update-baseline benchmarks/baselines
"""

from __future__ import annotations

import argparse
import inspect
import sys
from typing import Optional

from .runtime import ALL_EXPERIMENTS, PAPER_SCALE, SMALL_SCALE, print_rows

SCALES = {"small": SMALL_SCALE, "paper": PAPER_SCALE}


def _protocol_arg(name: str) -> str:
    """argparse type: canonical protocol name, rejected at parse time."""
    try:
        return _resolve_protocol(name)
    except SystemExit as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _backend_arg(name: str) -> str:
    """argparse type: backend name validated against the registry."""
    from .backends import resolve_backend
    from .common.errors import ConfigurationError

    try:
        return resolve_backend(name).name
    except ConfigurationError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _deployment_parent(default_backend: str = "live") -> argparse.ArgumentParser:
    """Shared deployment-shape flags of ``live``, ``diag`` and ``matrix``.

    A fresh parser per caller group: argparse ``set_defaults`` on a subparser
    mutates the *shared* parent actions, so subcommands that want a different
    ``--backend`` default (``openloop`` runs the simulator) must get their own
    parent instance instead.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--protocol", default="flexi-bft", type=_protocol_arg,
                        help="protocol to deploy (default: flexi-bft; dashes "
                             "optional, 'flexibft' works)")
    parent.add_argument("--backend", default=default_backend, type=_backend_arg,
                        help="execution backend: 'sim' (the deterministic "
                             "simulator), 'live'/'asyncio' (in-process "
                             "queues) or 'live-tcp'/'tcp' (versioned "
                             f"binary frames over localhost sockets); "
                             f"default: {default_backend}")
    parent.add_argument("--sharded", action="store_true",
                        help="run a sharded deployment (multiple consensus "
                             "groups driven by cross-shard clients)")
    parent.add_argument("--shards", type=int, default=2,
                        help="number of consensus groups with --sharded "
                             "(default: 2)")
    parent.add_argument("--scale", choices=sorted(SCALES), default="small",
                        help="experiment scale for the deployment sizing "
                             "(default: small)")
    return parent


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Dissecting BFT Consensus' (EuroSys 2023): "
                    "run figure experiments from the command line.")
    subparsers = parser.add_subparsers(dest="command")

    subparsers.add_parser("list", help="list the available experiments")

    run = subparsers.add_parser("run", help="run one experiment and print its table")
    run.add_argument("figure", choices=sorted(ALL_EXPERIMENTS),
                     help="experiment to run (see 'repro list')")
    run.add_argument("--scale", choices=sorted(SCALES), default="small",
                     help="experiment scale: laptop-sized 'small' (default) or "
                          "the paper-sized 'paper'")
    run.add_argument("--protocols", nargs="+", metavar="PROTOCOL",
                     type=_protocol_arg,
                     help="restrict the experiment to these protocols "
                          "(experiments that fix their protocol reject this)")

    parent = _deployment_parent()
    live = subparsers.add_parser(
        "live", parents=[parent],
        help="run one protocol on a real-time backend (asyncio "
             "queues or localhost TCP, plain or sharded) and print "
             "the same result row as the simulated backend")
    live.add_argument("--clients", type=int, default=None,
                      help="override the number of closed-loop clients")
    live.add_argument("--batch-size", type=int, default=None,
                      help="override the consensus batch size")
    live.add_argument("--requests", type=int, default=None,
                      help="stop after this many completed requests "
                           "(default: derived from the scale's batch counts)")
    live.add_argument("--max-seconds", type=float, default=None,
                      help="wall-clock cap on the run (default: the scale's "
                           "simulated-time cap)")
    live.add_argument("--trace", default=None, metavar="FILE",
                      help="enable structured tracing and write the retained "
                           "events to FILE as JSON lines at the end of the run")
    live.add_argument("--health-out", default=None, metavar="FILE",
                      help="write the periodic health samples (from "
                           "--health-interval) to FILE as JSON lines")
    live.add_argument("--health-interval", type=float, default=None,
                      metavar="SECONDS",
                      help="sample per-replica health every SECONDS while the "
                           "run is in flight (also folds an end-of-run health "
                           "aggregate into the result row)")
    live.add_argument("--stall-seconds", type=float, default=None,
                      metavar="SECONDS",
                      help="fire the stall watchdog after this long without "
                           "progress (default: derived from the wall-clock cap)")
    live.add_argument("--diag", default=None, metavar="FILE",
                      help="on a stall, write the watchdog's diagnostics "
                           "bundle to FILE (default: diagnostics.json)")
    live.add_argument("--report", choices=("table", "json"), default="table",
                      help="output format: human table (default) or a JSON "
                           "document with the result row and health aggregate")

    openloop = subparsers.add_parser(
        "openloop", parents=[_deployment_parent(default_backend="sim")],
        help="drive a deployment with the open-loop arrival engine "
             "(million-user Zipf population, Poisson or bursty arrivals, "
             "bounded in-flight lanes) and print the overload row")
    openloop.add_argument("--rate", type=float, default=4_000.0,
                          help="mean offered load in tx/s (default: 4000)")
    openloop.add_argument("--users", type=int, default=1_000_000,
                          help="logical user population behind the Zipf "
                               "popularity draw (default: 1,000,000)")
    openloop.add_argument("--process", choices=("poisson", "bursty"),
                          default="poisson",
                          help="arrival process (default: poisson)")
    openloop.add_argument("--burst-multiplier", type=float, default=4.0,
                          help="on-state rate multiplier of the bursty "
                               "process (default: 4.0; mean rate preserved)")
    openloop.add_argument("--theta", type=float, default=0.99,
                          help="Zipf skew over users, in [0,1) (default: 0.99)")
    openloop.add_argument("--max-in-flight", type=int, default=32,
                          help="request lanes / admission limit (default: 32)")
    openloop.add_argument("--deadline-ms", type=float, default=None,
                          help="per-request deadline in ms; unanswered "
                               "requests are abandoned and the lane freed "
                               "(default: no deadline)")
    openloop.add_argument("--duration", type=float, default=0.5,
                          help="run length in (kernel) seconds (default: 0.5)")
    openloop.add_argument("--segments", default=None, metavar="DUR:MULT,...",
                          help="piecewise rate ramp, e.g. "
                               "'0.2:0.5,0.2:2.0,0.2:1.0' (overrides "
                               "--duration)")
    openloop.add_argument("--report", choices=("table", "json"),
                          default="table",
                          help="print the rows as a table (default) or JSON")

    perf = subparsers.add_parser(
        "perf", help="run deterministic scenarios and compare the digest of "
                     "their simulated rows with committed baselines")
    perf.add_argument("--scenarios", nargs="+", metavar="NAME", default=None,
                      help="scenario names (see --list); default: every "
                           "baseline in the --check-baseline directory, "
                           "else every scenario")
    perf.add_argument("--scale", default=None,
                      help="run the selected scenarios at this scale "
                           "(smoke, medium, large); default: smoke, or each "
                           "checked baseline's own scale")
    perf.add_argument("--out", default=None, metavar="DIR",
                      help="also write each BENCH_<scenario>[.<scale>].json "
                           "into DIR")
    perf.add_argument("--check-baseline", default=None, metavar="DIR",
                      help="compare fresh digests against the baseline JSONs "
                           "in DIR; exit 1 on a digest mismatch or a missing "
                           "or incomparable baseline")
    perf.add_argument("--update-baseline", default=None, metavar="DIR",
                      help="write fresh results into DIR as the new baselines")
    perf.add_argument("--list", action="store_true", dest="list_scenarios",
                      help="list scenarios and scales, then exit")

    matrix = subparsers.add_parser(
        "matrix", help="expand, run, resume and collate experiment matrices "
                       "(content-hashed cells, per-cell result files, "
                       "figure-6-style curves)")
    matrix_commands = matrix.add_subparsers(dest="matrix_command")
    matrix_commands.add_parser(
        "list", help="list the committed matrices and their cells")
    matrix_run = matrix_commands.add_parser(
        "run", help="run one or more matrices (or ad-hoc axis lists), "
                    "resuming cells whose hashes already have results")
    matrix_run.add_argument("names", nargs="*", metavar="MATRIX",
                            help="committed matrix names (see 'repro matrix "
                                 "list'); omit to build one from the axis "
                                 "flags below")
    matrix_run.add_argument("--protocols", nargs="+", metavar="PROTOCOL",
                            type=_protocol_arg,
                            help="ad-hoc matrix: protocol axis values")
    matrix_run.add_argument("--backends", nargs="+", metavar="BACKEND",
                            type=_backend_arg, default=None,
                            help="ad-hoc matrix: backend axis values "
                                 "(default: sim)")
    matrix_run.add_argument("--clients", nargs="+", type=int, default=None,
                            help="ad-hoc matrix: client-count axis values")
    matrix_run.add_argument("--batch-sizes", nargs="+", type=int, default=None,
                            help="ad-hoc matrix: batch-size axis values")
    matrix_run.add_argument("--results", default="matrix-results",
                            metavar="DIR",
                            help="per-cell result directory "
                                 "(default: matrix-results); cells whose "
                                 "<hash>.json already exists are resumed")
    matrix_run.add_argument("--axis", default="clients",
                            help="row column the curves are plotted along "
                                 "(default: clients)")
    matrix_run.add_argument("--csv", default=None, metavar="FILE",
                            help="also write the collated curves to FILE "
                                 "as CSV")
    matrix_run.add_argument("--assert-resumed", action="store_true",
                            help="exit 1 if any cell actually executed "
                                 "(CI resume-is-noop check)")
    matrix_run.add_argument("--report", choices=("table", "json"),
                            default="table",
                            help="output format: curve tables (default) or "
                                 "one JSON document")
    matrix_collate = matrix_commands.add_parser(
        "collate", help="collate an existing results directory into curves "
                        "without running anything")
    matrix_collate.add_argument("--results", default="matrix-results",
                                metavar="DIR",
                                help="per-cell result directory to collate")
    matrix_collate.add_argument("--axis", default="clients",
                                help="curve axis column (default: clients)")
    matrix_collate.add_argument("--csv", default=None, metavar="FILE",
                                help="write the curves to FILE as CSV")
    matrix_collate.add_argument("--report", choices=("table", "json"),
                                default="table",
                                help="output format (default: table)")

    trace = subparsers.add_parser(
        "trace", help="analyze trace JSONL exports (per-request lifecycle "
                      "spans, latency decomposition)")
    trace_commands = trace.add_subparsers(dest="trace_command")
    trace_analyze = trace_commands.add_parser(
        "analyze", help="reconstruct per-request spans from a JSONL trace "
                        "and print the four-phase latency decomposition")
    trace_analyze.add_argument("file", metavar="FILE",
                               help="trace file written by 'repro live "
                                    "--trace FILE'")
    trace_analyze.add_argument("--report", choices=("table", "json"),
                               default="table",
                               help="output format (default: table)")
    trace_analyze.add_argument("--min-completeness", type=float, default=None,
                               metavar="FRACTION",
                               help="exit 1 unless at least this fraction of "
                                    "observed requests reconstructed into "
                                    "complete spans (CI gate)")
    trace_analyze.add_argument("--out", default=None, metavar="FILE",
                               help="also write the span summary as JSON to "
                                    "FILE (CI artifact)")

    diag = subparsers.add_parser(
        "diag", parents=[parent],
        help="run a short live deployment with tracing and health "
             "sampling on, then write a diagnostics bundle "
             "(kernel/queue/connection/replica state) to a file")
    diag.add_argument("--seconds", type=float, default=2.0,
                      help="wall-clock budget for the probe run (default: 2.0)")
    diag.add_argument("--out", default="diagnostics.json", metavar="FILE",
                      help="diagnostics bundle path (default: "
                           "diagnostics.json)")
    diag.add_argument("--trace", default=None, metavar="FILE",
                      help="also write the probe run's trace events to FILE "
                           "as JSON lines")
    return parser


def run_experiment(figure: str, scale_name: str,
                   protocols: Optional[list[str]]) -> list[dict]:
    """Dispatch one experiment, forwarding ``protocols`` when it accepts it."""
    experiment = ALL_EXPERIMENTS[figure]
    kwargs = {}
    if protocols:
        parameters = inspect.signature(experiment).parameters
        if "protocols" not in parameters:
            raise SystemExit(
                f"{figure} does not take a protocol selection")
        kwargs["protocols"] = tuple(protocols)
    return experiment(SCALES[scale_name], **kwargs)


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        width = max(len(name) for name in ALL_EXPERIMENTS)
        for name in sorted(ALL_EXPERIMENTS):
            doc = (ALL_EXPERIMENTS[name].__doc__ or "").strip().splitlines()[0]
            print(f"{name.ljust(width)}  {doc}")
        return 0
    if args.command == "run":
        rows = run_experiment(args.figure, args.scale, args.protocols)
        print_rows(f"{args.figure} ({args.scale} scale)", rows)
        return 0
    if args.command == "live":
        return run_live(args)
    if args.command == "openloop":
        return run_openloop(args)
    if args.command == "matrix":
        return run_matrix(args, parser)
    if args.command == "perf":
        return run_perf(args)
    if args.command == "diag":
        return run_diag(args)
    if args.command == "trace":
        return run_trace(args, parser)
    parser.print_help()
    return 2


def _resolve_protocol(name: str) -> str:
    """Canonical protocol name, accepting dash-less spellings."""
    from .protocols.registry import PROTOCOLS

    protocol = name.lower()
    if protocol in PROTOCOLS:
        return protocol
    # Accept dash-less spellings like "flexibft" / "flexizz".
    matches = [known for known in PROTOCOLS
               if known.replace("-", "") == protocol.replace("-", "")]
    if len(matches) != 1:
        raise SystemExit(
            f"unknown protocol {name!r}; known protocols: "
            f"{', '.join(sorted(PROTOCOLS))}")
    return matches[0]


def spec_from_args(args, *, observe=None) -> "object":
    """One :class:`DeploymentSpec` from the shared deployment-shape flags.

    The single builder behind ``live`` and ``diag`` (and the cell shape the
    ad-hoc ``matrix`` axes expand into): protocol and backend arrive already
    canonicalised by the argparse types, so this only assembles the spec.
    """
    from .runtime.experiments import build_config
    from .runtime.spec import DeploymentSpec

    config = build_config(args.protocol, SCALES[args.scale],
                          num_clients=getattr(args, "clients", None),
                          batch_size=getattr(args, "batch_size", None))
    return DeploymentSpec(config, backend=args.backend,
                          num_shards=args.shards if args.sharded else None,
                          observe=observe)


def _observe_from_args(args) -> "object | None":
    """Build an ObservabilityConfig from ``repro live`` flags (None = off)."""
    from .obsv import ObservabilityConfig

    trace = getattr(args, "trace", None) is not None
    health_interval = getattr(args, "health_interval", None)
    stall_seconds = getattr(args, "stall_seconds", None)
    collect_health = (health_interval is not None
                      or getattr(args, "report", "table") == "json")
    if not (trace or collect_health or stall_seconds is not None):
        return None
    return ObservabilityConfig(
        trace=trace,
        collect_health=collect_health,
        health_interval_us=(None if health_interval is None
                            else health_interval * 1_000_000.0),
        stall_after_us=(None if stall_seconds is None
                        else stall_seconds * 1_000_000.0))


def _write_trace(deployment, path: Optional[str]) -> None:
    if path and deployment.tracer is not None:
        deployment.tracer.write_jsonl(path)
        print(f"trace written: {path} ({len(deployment.tracer)} events, "
              f"{deployment.tracer.dropped} dropped)")


def _write_health_samples(deployment, path: Optional[str]) -> None:
    if path:
        from .obsv import write_health_jsonl

        count = write_health_jsonl(deployment.health_samples, path)
        print(f"health samples written: {path} ({count} samples)")


def _handle_stall(error, diag_path: Optional[str]) -> int:
    """Persist a StallError's diagnostics bundle and report the suspect."""
    from .obsv import write_diagnostics

    path = diag_path or "diagnostics.json"
    write_diagnostics(error.diagnostics, path)
    print(f"live run STALLED: {error}")
    if error.suspect:
        print(f"suspect replica: {error.suspect}")
    print(f"diagnostics bundle written: {path}")
    return 1


def run_trace(args, parser) -> int:
    """Analyze a JSONL trace export into spans and a latency decomposition."""
    import json
    import os

    from .obsv import analyze_file, format_summary

    if args.trace_command != "analyze":
        parser.parse_args(["trace", "--help"])
        return 2
    if not os.path.isfile(args.file):
        raise SystemExit(f"trace analyze: no such file: {args.file!r}")
    summary = analyze_file(args.file)
    if args.report == "json":
        print(json.dumps(summary.as_dict(), indent=2, sort_keys=True))
    else:
        print(format_summary(summary))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(summary.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"span summary written: {args.out}")
    if (args.min_completeness is not None
            and summary.completeness < args.min_completeness):
        print(f"trace analyze FAILED: completeness "
              f"{summary.completeness:.3f} < {args.min_completeness:.3f} "
              f"({summary.complete}/{summary.requests} complete spans)")
        return 1
    return 0


def run_live(args) -> int:
    """Run one protocol on a real-time backend and print its result row.

    Every reply a client accepts is HMAC-verified against the replicas'
    keys (a forged or unsigned reply fails the run), so a passing live run
    certifies end-to-end authenticity, not just liveness.
    """
    import json

    from .backends import resolve_backend
    from .common.errors import StallError
    from .realtime import ReplyVerifier

    protocol = args.protocol
    backend = resolve_backend(args.backend)
    if not backend.realtime:
        raise SystemExit(f"'repro live' needs a real-time backend; "
                         f"{args.backend!r} is the simulator")
    if args.health_out is not None and args.health_interval is None:
        raise SystemExit("--health-out needs --health-interval to produce "
                         "samples")
    spec = spec_from_args(args, observe=_observe_from_args(args))
    cap_us = (None if args.max_seconds is None
              else args.max_seconds * 1_000_000.0)
    with spec.build() as deployment:
        verifier = ReplyVerifier(deployment)
        try:
            result = deployment.run_until_target(target_requests=args.requests,
                                                 max_sim_time_us=cap_us)
        except StallError as error:
            _write_trace(deployment, args.trace)
            return _handle_stall(error, args.diag)
        _write_trace(deployment, args.trace)
        _write_health_samples(deployment, args.health_out)
    row = {"protocol": protocol, "backend": backend.name}
    row.update(result.as_row())
    shape = f"{args.shards} shards" if args.sharded else "single group"
    if args.report == "json":
        report = {"title": f"live {protocol} ({args.scale} sizing, "
                           f"{backend.name} backend, {shape})",
                  "row": row,
                  "replies_verified": verifier.verified,
                  "health": (result.metrics.health
                             if result.metrics.health is not None else {}),
                  "health_samples": list(deployment.health_samples)}
        print(json.dumps(report, indent=2, sort_keys=True, default=str))
    else:
        print_rows(f"live {protocol} ({args.scale} sizing, {backend.name} "
                   f"backend, {shape})", [row])
        print(f"client replies HMAC-verified: {verifier.verified}")
    # A wedged backend times out with zero completions and clean safety bits
    # (the monitors saw nothing conflicting because they saw nothing at all);
    # completing no work is a failure, not a success.
    if result.metrics.completed_requests == 0:
        print("live run FAILED: no requests completed before the wall-clock cap")
        return 1
    if verifier.verified == 0:
        print("live run FAILED: no client reply was verified")
        return 1
    return 0 if result.consensus_safe and result.rsm_safe else 1


def _collate_and_report(payloads, axis: str, csv_path: Optional[str],
                        as_json: bool, **counts: int) -> None:
    """Collate payloads into curves; print them as tables or one JSON report.

    ``counts`` (a run's executed/resumed cells) are keys of the JSON report.
    """
    import json

    from .matrix import collate_payloads, write_curves_csv

    series = collate_payloads(payloads, axis=axis)
    report = {"axis": axis,
              "series": [{"protocol": one.protocol, "backend": one.backend,
                          "points": [point.as_row() for point in one.points]}
                         for one in series],
              **counts}
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True, default=str))
    else:
        for one in series:
            if one.points:
                print_rows(f"curve: {one.protocol} on {one.backend} "
                           f"(x = {axis})", one.as_rows())
    if csv_path:
        count = write_curves_csv(series, csv_path)
        print(f"curves written: {csv_path} ({count} points)")


def run_matrix(args, parser) -> int:
    """Expand, run/resume and collate experiment matrices."""
    from .common.errors import ConfigurationError
    from .matrix import (
        MATRICES,
        MatrixRunner,
        MatrixSpec,
        load_results,
        matrix_cells,
    )

    if args.matrix_command == "list":
        width = max(len(name) for name in MATRICES)
        for name in sorted(MATRICES):
            cells = matrix_cells(name)
            backends = sorted({cell.backend for cell in cells})
            print(f"{name.ljust(width)}  {len(cells):3d} cells  "
                  f"[{', '.join(backends)}]")
            for cell in cells:
                print(f"  {cell.content_hash}  {cell.label}")
        return 0
    if args.matrix_command == "collate":
        payloads = load_results(args.results)
        if not payloads:
            print(f"no cell results under {args.results!r}")
            return 1
        _collate_and_report(payloads, args.axis, args.csv,
                            args.report == "json")
        return 0
    if args.matrix_command != "run":
        parser.parse_args(["matrix", "--help"])
        return 2

    try:
        cells = []
        for name in args.names:
            cells.extend(matrix_cells(name))
        if args.protocols:
            ad_hoc = MatrixSpec(
                name="cli",
                protocols=tuple(args.protocols),
                backends=tuple(args.backends or ("sim",)),
                client_counts=(tuple(args.clients) if args.clients
                               else (None,)),
                batch_sizes=(tuple(args.batch_sizes) if args.batch_sizes
                             else (None,)))
            cells.extend(ad_hoc.cells())
    except ConfigurationError as error:
        raise SystemExit(str(error))
    if not cells:
        raise SystemExit("nothing to run: name a committed matrix (see "
                         "'repro matrix run smoke') or give --protocols")
    # Across several named matrices the same cell can legitimately appear
    # twice (e.g. 'fig6' plus 'curves'); one run per content hash suffices.
    unique: dict[str, object] = {}
    for cell in cells:
        unique.setdefault(cell.content_hash, cell)
    dropped = len(cells) - len(unique)
    if dropped:
        print(f"note: {dropped} duplicate cell(s) collapsed by content hash")
    as_json = args.report == "json"
    runner = MatrixRunner(results_dir=args.results,
                          log=None if as_json else print)
    result = runner.run(list(unique.values()))
    _collate_and_report([outcome.payload for outcome in result],
                        args.axis, args.csv, as_json,
                        executed=result.executed, resumed=result.resumed)
    if not as_json:
        print(f"cells: {len(result.outcomes)} (executed {result.executed}, "
              f"resumed {result.resumed}) -> {args.results}")
    if args.assert_resumed and result.executed:
        print(f"--assert-resumed: {result.executed} cell(s) executed "
              "instead of resuming")
        return 1
    return 0


def run_diag(args) -> int:
    """Probe a live deployment and write a diagnostics bundle.

    Runs the selected protocol/backend for a short wall-clock budget with
    tracing and health sampling enabled, then snapshots kernel, queue,
    connection and per-replica state into a JSON bundle — the same bundle
    the stall watchdog emits, but taken from a healthy (or quietly wedged)
    deployment on demand.
    """
    from .backends import resolve_backend
    from .common.errors import StallError
    from .obsv import ObservabilityConfig, snapshot_diagnostics, write_diagnostics

    backend = resolve_backend(args.backend)
    if not backend.realtime:
        raise SystemExit(f"'repro diag' probes a real-time backend; "
                         f"{args.backend!r} is the simulator")
    observe = ObservabilityConfig(
        trace=True, collect_health=True,
        health_interval_us=max(args.seconds * 1_000_000.0 / 10.0, 10_000.0))
    spec = spec_from_args(args, observe=observe)
    deployment = spec.build()
    stalled: Optional[StallError] = None
    try:
        try:
            deployment.run_until_target(
                max_sim_time_us=args.seconds * 1_000_000.0)
        except StallError as error:
            stalled = error
        bundle = (stalled.diagnostics if stalled is not None
                  and stalled.diagnostics else
                  snapshot_diagnostics(deployment, reason="manual probe"))
        write_diagnostics(bundle, args.out)
        _write_trace(deployment, args.trace)
    finally:
        deployment.close()
    aggregate = bundle.get("aggregate", {})
    print(f"diagnostics bundle written: {args.out}")
    print(f"  replicas: {aggregate.get('replicas', 0)} "
          f"(active: {aggregate.get('active', 0)}, "
          f"recovering: {aggregate.get('recovering', 0)})")
    if stalled is not None:
        print(f"probe run stalled: {stalled}")
        if stalled.suspect:
            print(f"suspect replica: {stalled.suspect}")
        return 1
    return 0


def _perf_selection(args) -> list[tuple[str, str]]:
    """The ``(scenario, scale)`` pairs one ``repro perf`` invocation runs."""
    from .perf import PERF_SCALES, SCENARIOS, committed_baselines

    if args.scale is not None and args.scale not in PERF_SCALES:
        raise SystemExit(f"unknown scale {args.scale!r}; scales: "
                         f"{', '.join(sorted(PERF_SCALES))}")
    if args.scenarios is None and args.check_baseline:
        # Checking a directory checks every baseline in it, each at the
        # scale it was recorded at.
        try:
            committed = committed_baselines(args.check_baseline)
        except OSError as error:
            raise SystemExit(f"--check-baseline: {error}") from None
        selection = [(scenario, scale) for scenario, scale in committed
                     if args.scale in (None, scale)]
        if not selection:
            raise SystemExit(f"--check-baseline: no BENCH_*.json baseline "
                             f"to check in {args.check_baseline!r}")
    else:
        selection = [(name, args.scale or "smoke")
                     for name in args.scenarios or SCENARIOS]
    for name, _ in selection:
        if name not in SCENARIOS:
            raise SystemExit(f"unknown scenario {name!r}; scenarios: "
                             f"{', '.join(sorted(SCENARIOS))}")
    return selection


def _parse_segments(text: Optional[str]) -> tuple:
    """Parse ``DUR:MULT,DUR:MULT,...`` into open-loop rate segments."""
    if not text:
        return ()
    segments = []
    for part in text.split(","):
        try:
            duration, multiplier = part.split(":")
            segments.append((float(duration), float(multiplier)))
        except ValueError:
            raise SystemExit(
                f"--segments: expected DUR:MULT pairs, got {part!r}")
    return tuple(segments)


def run_openloop(args) -> int:
    """Run one open-loop experiment and print its rows."""
    import json

    from .runtime.experiments import figure_openloop
    from .workload.openloop import OpenLoopConfig

    open_loop = OpenLoopConfig(
        num_users=args.users,
        arrival_rate_tx_s=args.rate,
        process=args.process,
        burst_multiplier=args.burst_multiplier,
        user_theta=args.theta,
        max_in_flight=args.max_in_flight,
        deadline_us=(None if args.deadline_ms is None
                     else args.deadline_ms * 1_000.0),
        duration_s=args.duration,
        segments=_parse_segments(args.segments))
    rows = figure_openloop(SCALES[args.scale], open_loop, args.protocol,
                           backend=args.backend,
                           num_shards=args.shards if args.sharded else None)
    if args.report == "json":
        print(json.dumps(rows, indent=2, sort_keys=True, default=str))
    else:
        title = (f"open loop: {args.protocol} @ {args.rate:.0f} tx/s "
                 f"({args.process}, {args.users:,} users)")
        print_rows(title, rows)
    return 0


def run_perf(args) -> int:
    """Run the selected scenarios; optionally compare or record digests."""
    from .perf import (
        PERF_SCALES,
        SCENARIOS,
        compare_to_dir,
        format_comparison,
        format_result,
        run_scenario,
        write_bench_json,
    )

    if args.list_scenarios:
        print("scenarios:", ", ".join(sorted(SCENARIOS)))
        print("scales:   ", ", ".join(sorted(PERF_SCALES)))
        return 0
    payloads = []
    for scenario, scale_name in _perf_selection(args):
        payload = run_scenario(scenario, scale_name)
        print(format_result(payload))
        if args.out:
            print(f"  -> {write_bench_json(payload, args.out)}")
        payloads.append(payload)
    # Check before update: with both flags pointing at one directory the
    # comparison must run against the *pre-existing* baselines (comparing
    # fresh results to their own just-written copies would always pass), and
    # results that failed the check must not overwrite the baselines they
    # failed against.
    if args.check_baseline:
        comparisons = compare_to_dir(payloads, args.check_baseline)
        for comparison in comparisons:
            print(format_comparison(comparison))
        failures = sum(not comparison.ok for comparison in comparisons)
        if failures:
            if args.update_baseline:
                print("baselines NOT updated: fix the difference or rerun "
                      "with --update-baseline alone to accept it")
            print(f"digest check FAILED: {failures} of {len(payloads)} "
                  f"scenario(s) differ from {args.check_baseline}")
            return 1
        print(f"digest check passed: {len(payloads)} scenario(s) match "
              f"{args.check_baseline}")
    if args.update_baseline:
        for payload in payloads:
            path = write_bench_json(payload, args.update_baseline)
            print(f"baseline updated: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

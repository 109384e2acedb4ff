"""Command-line entry point: ``python -m repro`` (or the ``repro`` script).

Runs the paper's figure experiments, live deployments, experiment matrices
and the determinism digests; one example per subcommand::

    python -m repro list
    python -m repro run figure6_batching --scale paper --protocols pbft flexi-bft
    python -m repro live --backend tcp --sharded --protocol flexibft --trace t.jsonl
    python -m repro openloop --rate 4000 --process bursty --report json
    python -m repro diag --backend tcp --out diag.json
    python -m repro trace analyze t.jsonl --min-completeness 0.95
    python -m repro matrix list
    python -m repro matrix run smoke --results matrix-results --csv curves.csv
    python -m repro matrix collate --results matrix-results --report json
    python -m repro perf --check-baseline benchmarks/baselines

Every subcommand returns one :class:`Report`, and :func:`main` renders it
once.  stdout carries the report alone: its text tables, or exactly one
JSON document under ``--report json``.  Notes on side files written,
matrix progress and failure lines go to stderr.  The exit code is 1
exactly when the report has failures, and 2 on a usage error.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

from .backends import resolve_backend
from .common.errors import ConfigurationError, StallError
from .matrix import (MATRICES, MatrixRunner, MatrixSpec, collate_payloads,
                     load_results, matrix_cells, write_curves_csv)
from .obsv import (ObservabilityConfig, analyze_file, format_summary,
                   snapshot_diagnostics, write_diagnostics, write_health_jsonl)
from .perf import (PERF_SCALES, SCENARIOS, committed_baselines, compare_to_dir,
                   format_comparison, format_result, run_scenario,
                   write_bench_json)
from .protocols.registry import PROTOCOLS
from .realtime import ReplyVerifier
from .runtime import ALL_EXPERIMENTS, PAPER_SCALE, SMALL_SCALE, print_rows
from .runtime.experiments import build_config, figure_openloop
from .runtime.spec import DeploymentSpec
from .workload.openloop import OpenLoopConfig

SCALES = {"small": SMALL_SCALE, "paper": PAPER_SCALE}
#: Canonical protocol name by its lower-case spelling without dashes.
_PROTOCOL_NAMES = {name.replace("-", ""): name for name in PROTOCOLS}


@dataclass
class Report:
    """What one subcommand produced; :func:`main` renders it once.

    ``tables`` (``(title, rows)`` pairs) and then ``text`` are the text
    report, ``document`` the ``--report json`` one; ``notes`` on the side
    files written and ``failures`` go to stderr.
    """

    tables: list[tuple[str, list[dict]]] = field(default_factory=list)
    text: list[str] = field(default_factory=list)
    document: object = None
    notes: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    def write(self, what: str, path: str, write: Callable[[str], object],
              unit: str = "") -> None:
        """Write one side file with ``write(path)`` and note it.

        ``write`` returns the count of ``unit`` it wrote or, handed a
        directory, the path of the file it wrote there.
        """
        written = write(path)
        if unit:
            path = f"{path} ({written} {unit})"
        elif isinstance(written, str):
            path = written
        self.notes.append(f"{what} written: {path}")


def _protocol_arg(name: str) -> str:
    """argparse type: canonical protocol name ('flexibft' -> 'flexi-bft')."""
    try:
        return _PROTOCOL_NAMES[name.lower().replace("-", "")]
    except KeyError:
        raise argparse.ArgumentTypeError(
            f"unknown protocol {name!r}; known protocols: "
            f"{', '.join(sorted(PROTOCOLS))}") from None


def _backend_arg(name: str, realtime: bool = False) -> str:
    """argparse type: backend name validated against the registry."""
    try:
        backend = resolve_backend(name)
    except ConfigurationError as error:
        raise argparse.ArgumentTypeError(str(error)) from None
    if realtime and not backend.realtime:
        raise argparse.ArgumentTypeError(
            f"{name!r} is the simulator; this command needs a real-time backend")
    return backend.name


def _segments_arg(text: str) -> tuple:
    """argparse type: ``DUR:MULT,DUR:MULT,...`` open-loop rate segments."""
    try:
        pairs = [part.split(":") for part in text.split(",")]
        return tuple((float(duration), float(multiplier))
                     for duration, multiplier in pairs)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected DUR:MULT pairs, got {text!r}") from None


def _deployment_parent(default_backend: str = "live") -> argparse.ArgumentParser:
    """Shared deployment-shape flags of ``live``, ``diag`` and ``openloop``.

    A fresh parser per caller group: argparse ``set_defaults`` on a subparser
    mutates the *shared* parent actions, so subcommands that want a different
    ``--backend`` default (``openloop`` runs the simulator) must get their own
    parent instance instead.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--protocol", default="flexi-bft", type=_protocol_arg,
                        help="protocol to deploy (default: flexi-bft; dashes "
                             "optional, 'flexibft' works)")
    parent.add_argument("--backend", default=default_backend,
                        type=partial(_backend_arg,
                                     realtime=default_backend != "sim"),
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
    subparsers = parser.add_subparsers(dest="command", required=True)
    reported = argparse.ArgumentParser(add_help=False)
    reported.add_argument("--report", choices=("table", "json"),
                          default="table",
                          help="output format: text tables (default) or "
                               "one JSON document")

    subparsers.add_parser("list", help="list the available experiments"
                          ).set_defaults(handler=run_list)

    run = subparsers.add_parser("run", help="run one experiment and print its table")
    run.set_defaults(handler=run_figure)
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
    parent.add_argument("--trace", metavar="FILE",
                        help="trace the run and write its retained events to "
                             "FILE as JSON lines at the end of the run")
    live = subparsers.add_parser(
        "live", parents=[parent, reported],
        help="run one protocol on a real-time backend (asyncio "
             "queues or localhost TCP, plain or sharded) and print "
             "the same result row as the simulated backend")
    live.set_defaults(handler=run_live)
    live.add_argument("--clients", type=int,
                      help="override the number of closed-loop clients")
    live.add_argument("--batch-size", type=int,
                      help="override the consensus batch size")
    live.add_argument("--requests", type=int,
                      help="stop after this many completed requests "
                           "(default: derived from the scale's batch counts)")
    live.add_argument("--max-seconds", type=float,
                      help="wall-clock cap on the run (default: the scale's "
                           "simulated-time cap)")
    live.add_argument("--health-out", metavar="FILE",
                      help="write the periodic health samples (from "
                           "--health-interval) to FILE as JSON lines")
    live.add_argument("--health-interval", type=float, metavar="SECONDS",
                      help="sample per-replica health every SECONDS while the "
                           "run is in flight (also folds an end-of-run health "
                           "aggregate into the result row)")
    live.add_argument("--stall-seconds", type=float, metavar="SECONDS",
                      help="fire the stall watchdog after this long without "
                           "progress (default: derived from the wall-clock cap)")
    live.add_argument("--diag", default="diagnostics.json", metavar="FILE",
                      help="on a stall, write the watchdog's diagnostics "
                           "bundle to FILE (default: diagnostics.json)")

    openloop = subparsers.add_parser(
        "openloop", parents=[_deployment_parent(default_backend="sim"),
                             reported],
        help="drive a deployment with the open-loop arrival engine "
             "(million-user Zipf population, Poisson or bursty arrivals, "
             "bounded in-flight lanes) and print the overload row")
    openloop.set_defaults(handler=run_openloop)
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
    openloop.add_argument("--deadline-ms", type=float,
                          help="per-request deadline in ms; unanswered "
                               "requests are abandoned and the lane freed "
                               "(default: no deadline)")
    openloop.add_argument("--duration", type=float, default=0.5,
                          help="run length in (kernel) seconds (default: 0.5)")
    openloop.add_argument("--segments", default=(), type=_segments_arg,
                          metavar="DUR:MULT,...",
                          help="piecewise rate ramp, e.g. "
                               "'0.2:0.5,0.2:2.0,0.2:1.0' (overrides "
                               "--duration)")

    perf = subparsers.add_parser(
        "perf", help="run deterministic scenarios and compare the digest of "
                     "their simulated rows with committed baselines")
    perf.set_defaults(handler=run_perf)
    perf.add_argument("--scenarios", nargs="+", metavar="NAME",
                      help="scenario names (see --list); default: every "
                           "baseline in the --check-baseline directory, "
                           "else every scenario")
    perf.add_argument("--scale", choices=sorted(PERF_SCALES),
                      help="run the selected scenarios at this scale "
                           "(smoke, medium, large); default: smoke, or each "
                           "checked baseline's own scale")
    perf.add_argument("--out", metavar="DIR",
                      help="also write each BENCH_<scenario>[.<scale>].json "
                           "into DIR")
    perf.add_argument("--check-baseline", metavar="DIR",
                      help="compare fresh digests against the baseline JSONs "
                           "in DIR; exit 1 on a digest mismatch or a missing "
                           "or incomparable baseline")
    perf.add_argument("--update-baseline", metavar="DIR",
                      help="write fresh results into DIR as the new baselines")
    perf.add_argument("--list", action="store_true", dest="list_scenarios",
                      help="list scenarios and scales, then exit")

    matrix = subparsers.add_parser(
        "matrix", help="expand, run, resume and collate experiment matrices "
                       "(content-hashed cells, per-cell result files, "
                       "figure-6-style curves)")
    matrix_commands = matrix.add_subparsers(dest="matrix_command",
                                            required=True)
    matrix_commands.add_parser(
        "list", help="list the committed matrices and their cells"
    ).set_defaults(handler=run_matrix_list)
    curves = argparse.ArgumentParser(add_help=False, parents=[reported])
    curves.add_argument("--results", default="matrix-results", metavar="DIR",
                        help="per-cell result directory (default: "
                             "matrix-results); 'run' resumes every cell whose "
                             "<hash>.json already exists")
    curves.add_argument("--axis", default="clients",
                        help="row column the curves are plotted along "
                             "(default: clients)")
    curves.add_argument("--csv", metavar="FILE",
                        help="also write the collated curves to FILE as CSV")
    matrix_run = matrix_commands.add_parser(
        "run", parents=[curves],
        help="run one or more matrices (or ad-hoc axis lists), "
             "resuming cells whose hashes already have results")
    matrix_run.set_defaults(handler=run_matrix)
    matrix_run.add_argument("names", nargs="*", metavar="MATRIX",
                            help="committed matrix names (see 'repro matrix "
                                 "list'); omit to build one from the axis "
                                 "flags below")
    matrix_run.add_argument("--protocols", nargs="+", metavar="PROTOCOL",
                            type=_protocol_arg,
                            help="ad-hoc matrix: protocol axis values")
    matrix_run.add_argument("--backends", nargs="+", metavar="BACKEND",
                            type=_backend_arg,
                            help="ad-hoc matrix: backend axis values "
                                 "(default: sim)")
    matrix_run.add_argument("--clients", nargs="+", type=int,
                            help="ad-hoc matrix: client-count axis values")
    matrix_run.add_argument("--batch-sizes", nargs="+", type=int,
                            help="ad-hoc matrix: batch-size axis values")
    matrix_run.add_argument("--assert-resumed", action="store_true",
                            help="exit 1 if any cell actually executed "
                                 "(CI resume-is-noop check)")
    matrix_commands.add_parser(
        "collate", parents=[curves],
        help="collate an existing results directory into curves "
             "without running anything").set_defaults(
                 handler=run_matrix_collate)

    trace = subparsers.add_parser(
        "trace", help="analyze trace JSONL exports (per-request lifecycle "
                      "spans, latency decomposition)")
    trace_commands = trace.add_subparsers(dest="trace_command", required=True)
    trace_analyze = trace_commands.add_parser(
        "analyze", parents=[reported],
        help="reconstruct per-request spans from a JSONL trace "
             "and print the four-phase latency decomposition")
    trace_analyze.set_defaults(handler=run_trace)
    trace_analyze.add_argument("file", metavar="FILE",
                               help="trace file written by 'repro live "
                                    "--trace FILE'")
    trace_analyze.add_argument("--min-completeness", type=float,
                               metavar="FRACTION",
                               help="exit 1 unless at least this fraction of "
                                    "observed requests reconstructed into "
                                    "complete spans (CI gate)")
    trace_analyze.add_argument("--out", metavar="FILE",
                               help="also write the span summary as JSON to "
                                    "FILE (CI artifact)")

    diag = subparsers.add_parser(
        "diag", parents=[parent],
        help="run a short live deployment with tracing and health "
             "sampling on, then write a diagnostics bundle "
             "(kernel/queue/connection/replica state) to a file")
    diag.set_defaults(handler=run_diag)
    diag.add_argument("--seconds", type=float, default=2.0,
                      help="wall-clock budget for the probe run (default: 2.0)")
    diag.add_argument("--out", default="diagnostics.json", metavar="FILE",
                      help="diagnostics bundle path (default: "
                           "diagnostics.json)")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    report = args.handler(args)
    if getattr(args, "report", "table") == "json":
        print(json.dumps(report.document, indent=2, sort_keys=True,
                         default=str))
    else:
        for title, rows in report.tables:
            print_rows(title, rows)
        for text in report.text:
            print(text)
    for line in report.notes + report.failures:
        print(line, file=sys.stderr)
    return 1 if report.failures else 0


def run_list(args) -> Report:
    """One line per experiment: its name and the first line of its doc."""
    width = max(len(name) for name in ALL_EXPERIMENTS)
    return Report(text=[
        f"{name.ljust(width)}  "
        f"{(ALL_EXPERIMENTS[name].__doc__ or '').strip().splitlines()[0]}"
        for name in sorted(ALL_EXPERIMENTS)])


def run_experiment(figure: str, scale_name: str,
                   protocols: Optional[list[str]]) -> list[dict]:
    """Dispatch one experiment, forwarding ``protocols`` when it accepts it."""
    experiment = ALL_EXPERIMENTS[figure]
    kwargs = {}
    if protocols:
        if "protocols" not in inspect.signature(experiment).parameters:
            raise SystemExit(f"{figure} does not take a protocol selection")
        kwargs["protocols"] = tuple(protocols)
    return experiment(SCALES[scale_name], **kwargs)


def run_figure(args) -> Report:
    """Run one experiment into its row table."""
    rows = run_experiment(args.figure, args.scale, args.protocols)
    return Report(tables=[(f"{args.figure} ({args.scale} scale)", rows)])


def _us(seconds: Optional[float]) -> Optional[float]:
    """Seconds as microseconds; None stays None."""
    return None if seconds is None else seconds * 1_000_000.0


def spec_from_args(args, *, observe=None) -> DeploymentSpec:
    """The :class:`DeploymentSpec` that ``live`` and ``diag`` deploy."""
    config = build_config(args.protocol, SCALES[args.scale],
                          num_clients=getattr(args, "clients", None),
                          batch_size=getattr(args, "batch_size", None))
    return DeploymentSpec(config, backend=args.backend,
                          num_shards=args.shards if args.sharded else None,
                          observe=observe)


def _run_watched(deployment, report: Report, args, bundle_path: str,
                 stalled: str, **limits):
    """Run to ``limits``, then write ``--trace``: the stall path of
    ``live`` and ``diag``.

    On a :class:`StallError` the watchdog's bundle goes to ``bundle_path``,
    the report fails with ``stalled`` and the suspect replica, and the
    result is ``(None, bundle)``; otherwise ``(run result, None)``.
    """
    try:
        outcome = (deployment.run_until_target(**limits), None)
    except StallError as error:
        outcome = (None, error.diagnostics)
        report.write("diagnostics bundle", bundle_path,
                     partial(write_diagnostics, error.diagnostics))
        report.failures.append(f"{stalled}: {error}")
        if error.suspect:
            report.failures.append(f"suspect replica: {error.suspect}")
    if args.trace:
        tracer = deployment.tracer
        report.write("trace", args.trace, tracer.write_jsonl,
                     f"events, {tracer.dropped} dropped")
    return outcome


def run_live(args) -> Report:
    """Run one protocol on a real-time backend into its result row.

    Every reply a client accepts is HMAC-verified against the replicas'
    keys (a forged or unsigned reply fails the run), so a passing live run
    certifies end-to-end authenticity, not just liveness.
    """
    if args.health_out is not None and args.health_interval is None:
        raise SystemExit("--health-out needs --health-interval to produce "
                         "samples")
    observe = ObservabilityConfig(
        trace=args.trace is not None,
        collect_health=args.health_interval is not None or args.report == "json",
        health_interval_us=_us(args.health_interval),
        stall_after_us=_us(args.stall_seconds))
    shape = f"{args.shards} shards" if args.sharded else "single group"
    title = (f"live {args.protocol} ({args.scale} sizing, {args.backend} "
             f"backend, {shape})")
    report = Report(document={"title": title})
    with spec_from_args(args, observe=observe).build() as deployment:
        verifier = ReplyVerifier(deployment)
        result, _ = _run_watched(
            deployment, report, args, args.diag, "live run STALLED",
            target_requests=args.requests, max_sim_time_us=_us(args.max_seconds))
        if args.health_out:
            report.write("health samples", args.health_out,
                         partial(write_health_jsonl, deployment.health_samples),
                         "samples")
    if result is None:
        return report
    row = {"protocol": args.protocol, "backend": args.backend,
           **result.as_row()}
    report.tables.append((title, [row]))
    report.text.append(f"client replies HMAC-verified: {verifier.verified}")
    report.document.update(row=row, replies_verified=verifier.verified,
                           health=result.metrics.health or {},
                           health_samples=list(deployment.health_samples))
    # A wedged backend times out with zero completions and clean safety bits
    # (the monitors saw nothing conflicting because they saw nothing at all);
    # completing no work is a failure, not a success.
    if result.metrics.completed_requests == 0:
        report.failures.append("live run FAILED: no requests completed "
                               "before the wall-clock cap")
    elif verifier.verified == 0:
        report.failures.append("live run FAILED: no client reply was verified")
    elif not (result.consensus_safe and result.rsm_safe):
        report.failures.append(
            f"live run FAILED: unsafe ledger (consensus_safe="
            f"{result.consensus_safe}, rsm_safe={result.rsm_safe})")
    return report


def run_diag(args) -> Report:
    """Probe a live deployment for ``--seconds``, traced and health-sampled,
    and write the stall watchdog's diagnostics bundle of it on demand."""
    observe = ObservabilityConfig(
        trace=True, collect_health=True,
        health_interval_us=max(_us(args.seconds) / 10.0, 10_000.0))
    report = Report()
    with spec_from_args(args, observe=observe).build() as deployment:
        _, bundle = _run_watched(deployment, report, args, args.out,
                                 "probe run stalled",
                                 max_sim_time_us=_us(args.seconds))
        if bundle is None:
            bundle = snapshot_diagnostics(deployment, reason="manual probe")
            report.write("diagnostics bundle", args.out,
                         partial(write_diagnostics, bundle))
    aggregate = bundle.get("aggregate", {})
    report.text.append(f"replicas: {aggregate.get('replicas', 0)} "
                       f"(active: {aggregate.get('active', 0)}, "
                       f"recovering: {aggregate.get('recovering', 0)})")
    return report


def run_trace(args) -> Report:
    """Analyze a JSONL trace export into spans and a latency decomposition."""
    if not os.path.isfile(args.file):
        raise SystemExit(f"trace analyze: no such file: {args.file!r}")
    summary = analyze_file(args.file)
    report = Report(text=[format_summary(summary)], document=summary.as_dict())
    if args.out:
        # The indented-JSON writer of diagnostics bundles, reused.
        report.write("span summary", args.out,
                     partial(write_diagnostics, report.document))
    if (args.min_completeness is not None
            and summary.completeness < args.min_completeness):
        report.failures.append(
            f"trace analyze FAILED: completeness {summary.completeness:.3f} "
            f"< {args.min_completeness:.3f} "
            f"({summary.complete}/{summary.requests} complete spans)")
    return report


def run_matrix_list(args) -> Report:
    """Each committed matrix with its cells' hashes and labels."""
    width = max(len(name) for name in MATRICES)
    report = Report()
    for name in sorted(MATRICES):
        cells = matrix_cells(name)
        backends = sorted({cell.backend for cell in cells})
        report.text.append(f"{name.ljust(width)}  {len(cells):3d} cells  "
                           f"[{', '.join(backends)}]")
        report.text.extend(f"  {cell.content_hash}  {cell.label}"
                           for cell in cells)
    return report


def _curves(report: Report, payloads, args, **counts: int) -> Report:
    """Collate payloads into curve tables, the JSON document and ``--csv``.

    ``counts`` (a run's executed/resumed cells) are keys of the document.
    """
    series = collate_payloads(payloads, axis=args.axis)
    report.tables += [(f"curve: {one.protocol} on {one.backend} "
                       f"(x = {args.axis})", one.as_rows())
                      for one in series if one.points]
    report.document = {
        "axis": args.axis,
        "series": [{"protocol": one.protocol, "backend": one.backend,
                    "points": [point.as_row() for point in one.points]}
                   for one in series],
        **counts}
    if args.csv and payloads:
        report.write("curves", args.csv, partial(write_curves_csv, series),
                     "points")
    return report


def run_matrix_collate(args) -> Report:
    """Collate an existing results directory into curves."""
    payloads = load_results(args.results)
    missing = [] if payloads else [f"no cell results under {args.results!r}"]
    return _curves(Report(failures=missing), payloads, args)


def run_matrix(args) -> Report:
    """Run or resume matrix cells and collate them into curves."""
    try:
        cells = [cell for name in args.names for cell in matrix_cells(name)]
        if args.protocols:
            cells += MatrixSpec(
                name="cli",
                protocols=tuple(args.protocols),
                backends=tuple(args.backends or ("sim",)),
                client_counts=tuple(args.clients or (None,)),
                batch_sizes=tuple(args.batch_sizes or (None,))).cells()
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
    report = Report()
    if len(cells) > len(unique):
        report.notes.append(f"note: {len(cells) - len(unique)} duplicate "
                            "cell(s) collapsed by content hash")
    runner = MatrixRunner(results_dir=args.results,
                          log=partial(print, file=sys.stderr))
    result = runner.run(list(unique.values()))
    _curves(report, [outcome.payload for outcome in result], args,
            executed=result.executed, resumed=result.resumed)
    report.text.append(f"cells: {len(result.outcomes)} (executed "
                       f"{result.executed}, resumed {result.resumed}) -> "
                       f"{args.results}")
    if args.assert_resumed and result.executed:
        report.failures.append(f"--assert-resumed: {result.executed} cell(s) "
                               "executed instead of resuming")
    return report


def run_openloop(args) -> Report:
    """Run one open-loop experiment into its rows."""
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
        segments=args.segments)
    rows = figure_openloop(SCALES[args.scale], open_loop, args.protocol,
                           backend=args.backend,
                           num_shards=args.shards if args.sharded else None)
    title = (f"open loop: {args.protocol} @ {args.rate:.0f} tx/s "
             f"({args.process}, {args.users:,} users)")
    return Report(tables=[(title, rows)], document=rows)


def _perf_selection(args) -> list[tuple[str, str]]:
    """The ``(scenario, scale)`` pairs one ``repro perf`` invocation runs."""
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


def run_perf(args) -> Report:
    """Run the selected scenarios; optionally compare or record digests."""
    if args.list_scenarios:
        return Report(text=[f"scenarios: {', '.join(sorted(SCENARIOS))}",
                            f"scales:    {', '.join(sorted(PERF_SCALES))}"])
    payloads = [run_scenario(scenario, scale)
                for scenario, scale in _perf_selection(args)]
    report = Report(text=[format_result(payload) for payload in payloads])
    for payload in payloads if args.out else ():
        report.write("result", args.out, partial(write_bench_json, payload))
    # Check before update: with both flags pointing at one directory the
    # comparison must run against the *pre-existing* baselines (comparing
    # fresh results to their own just-written copies would always pass), and
    # results that failed the check must not overwrite the baselines they
    # failed against.
    if args.check_baseline:
        comparisons = compare_to_dir(payloads, args.check_baseline)
        report.text += [format_comparison(one) for one in comparisons]
        failed = sum(not comparison.ok for comparison in comparisons)
        if failed and args.update_baseline:
            report.failures.append("baselines NOT updated: fix the difference "
                                   "or rerun with --update-baseline alone to "
                                   "accept it")
        if failed:
            report.failures.append(
                f"digest check FAILED: {failed} of {len(payloads)} "
                f"scenario(s) differ from {args.check_baseline}")
            return report
        report.text.append(f"digest check passed: {len(payloads)} "
                           f"scenario(s) match {args.check_baseline}")
    for payload in payloads if args.update_baseline else ():
        report.write("baseline", args.update_baseline,
                     partial(write_bench_json, payload))
    return report


if __name__ == "__main__":
    sys.exit(main())

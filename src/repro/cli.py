"""Command-line interface: ``repro-arb`` / ``python -m repro``.

Subcommands regenerate the paper's tables and figure, or run a single
ad-hoc simulation::

    repro-arb table 4.1              # 4.1-4.5, or extension tables E1-E5
    repro-arb figure 4.1
    repro-arb all                    # everything, in order
    repro-arb run --protocol rr --agents 30 --load 1.5
    repro-arb compare --protocols rr fcfs aap1   # side by side, same seed
    repro-arb faults                 # robustness grid (fault rate x protocol)
    repro-arb trace --protocol rr    # JSONL arbitration-event trace to stdout
    repro-arb metrics --protocol rr  # counters + histograms for one run
    repro-arb protocols              # list registered protocols
    repro-arb --list-protocols       # ditto, without a subcommand

Fidelity is controlled by ``--scale`` or the ``REPRO_SCALE`` environment
variable (smoke / quick / default / paper).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.errors import ReproError
from repro.experiments import SimulationSettings
from repro.experiments import (
    extensions,
    figure_4_1,
    robustness,
    table_4_1,
    table_4_2,
    table_4_3,
    table_4_4,
    table_4_5,
)
from repro.experiments.cache import ResultCache
from repro.experiments.formatting import fmt_estimate
from repro.experiments.params import DEFAULT_SEED
from repro.experiments.scale import SCALES, current_scale
from repro.observability import TelemetrySettings, render_metrics
from repro.protocols.registry import get_spec, protocol_names
from repro.session import Session
from repro.workload.arrivals import bursty_equal_load
from repro.workload.scenarios import ScenarioSpec, equal_load, open_loop_equal_load

__all__ = ["main", "build_parser", "render_protocol_listing"]

_TABLES = {
    "4.1": table_4_1,
    "4.2": table_4_2,
    "4.3": table_4_3,
    "4.4": table_4_4,
    "4.5": table_4_5,
}

#: Extension tables (beyond the paper): name -> callable(scale, seed, executor).
_EXTENSION_TABLES = {
    "E1": lambda scale, seed, executor: extensions.run_table_e1(),
    "E2": lambda scale, seed, executor: extensions.run_table_e2(seed=seed),
    "E3": lambda scale, seed, executor: extensions.run_table_e3(
        scale=scale, seed=seed, executor=executor
    ),
    "E4": lambda scale, seed, executor: extensions.run_table_e4(
        scale=scale, seed=seed, executor=executor
    ),
    "E5": lambda scale, seed, executor: extensions.run_table_e5(
        scale=scale, seed=seed, executor=executor
    ),
}


def _add_workload_options(cmd: argparse.ArgumentParser) -> None:
    """The ad-hoc workload vocabulary shared by run/trace/metrics/compare.

    ``--arrival closed`` (the default) keeps the paper's §4.1 think-time
    loop; ``poisson`` and ``bursty`` are open-loop arrival processes, so
    their ``--load`` is a true arrival-rate load and must stay below 1.
    ``--urgent-fraction`` overlays the §5 two-class split on any of them.
    """
    cmd.add_argument(
        "--arrival",
        choices=("closed", "poisson", "bursty"),
        default="closed",
        help="arrival model: closed think-time loop (default), open-loop "
        "Poisson, or open-loop on-off bursty (MMPP) sources",
    )
    cmd.add_argument(
        "--urgent-fraction",
        type=float,
        default=0.0,
        metavar="P",
        help="probability a request is urgent-class (the §5 priority overlay)",
    )
    cmd.add_argument(
        "--outstanding",
        type=int,
        default=1,
        metavar="R",
        help="outstanding requests per open-loop agent (r of §3.2; "
        "needs a protocol with r > 1 support)",
    )
    cmd.add_argument(
        "--burst-on",
        type=float,
        default=0.5,
        metavar="F",
        help="bursty arrivals: fraction of a cycle spent in the on phase",
    )
    cmd.add_argument(
        "--burst-cycle",
        type=float,
        default=20.0,
        metavar="T",
        help="bursty arrivals: mean on+off cycle length (transaction times)",
    )


def _with_urgent(scenario: ScenarioSpec, fraction: float) -> ScenarioSpec:
    """Overlay a two-class split on an existing population."""
    if fraction <= 0.0:
        return scenario
    from dataclasses import replace

    return ScenarioSpec(
        name=f"{scenario.name}-u{fraction:g}",
        agents=tuple(
            replace(agent, priority_fraction=fraction) for agent in scenario.agents
        ),
        notes=scenario.notes,
    )


def _cli_scenario(args) -> ScenarioSpec:
    """Build the ad-hoc scenario the workload options describe."""
    arrival = getattr(args, "arrival", "closed")
    if arrival == "poisson":
        scenario = open_loop_equal_load(
            args.agents, args.load, cv=args.cv, max_outstanding=args.outstanding
        )
    elif arrival == "bursty":
        scenario = bursty_equal_load(
            args.agents,
            args.load,
            on_fraction=args.burst_on,
            cycle_time=args.burst_cycle,
            max_outstanding=args.outstanding,
        )
    else:
        scenario = equal_load(args.agents, args.load, cv=args.cv)
    return _with_urgent(scenario, getattr(args, "urgent_fraction", 0.0))


def render_protocol_listing() -> str:
    """The registry as a capability table (``protocols`` / --list-protocols).

    Everything shown is declared on the :class:`ProtocolSpec`, not probed
    from an instance: name, paper section, extra bus lines, r > 1
    support, and the one-line summary.
    """
    header = f"{'protocol':14s} {'section':9s} {'lines':>5s} {'r>1':>4s}  summary"
    rows = [header, "-" * len(header)]
    for name in protocol_names():
        spec = get_spec(name)
        extra = "?" if spec.extra_lines is None else str(spec.extra_lines)
        section = spec.paper_section or "-"
        rows.append(
            f"{name:14s} {section:9s} {extra:>5s} "
            f"{'yes' if spec.supports_outstanding else 'no':>4s}  {spec.summary}"
        )
    return "\n".join(rows)


class _ListProtocolsAction(argparse.Action):
    """Print the protocol listing and exit, like ``--help``.

    Implemented as an action so it works without a subcommand while the
    subparsers stay ``required=True``.
    """

    def __init__(self, option_strings, dest, **kwargs):
        kwargs.setdefault("nargs", 0)
        kwargs.setdefault("help", "list registered protocols and exit")
        super().__init__(option_strings, dest, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        print(render_protocol_listing())
        parser.exit(0)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-arb",
        description=(
            "Reproduce Vernon & Manber (ISCA 1988): distributed RR and "
            "FCFS bus-arbitration protocols."
        ),
    )
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default=None,
        help="run length (default: $REPRO_SCALE or 'quick')",
    )
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, help="master random seed"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help=(
            "worker processes for table/figure sweeps (0 = one per core; "
            "default: $REPRO_JOBS or 1 = serial); results are identical "
            "for any worker count"
        ),
    )
    parser.add_argument(
        "--cache",
        action="store_true",
        help="reuse cached simulation results ($REPRO_CACHE_DIR or ~/.cache/repro-arb)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="cache results under PATH (implies --cache)",
    )
    parser.add_argument(
        "--engine",
        choices=("event", "batch"),
        default=None,
        help=(
            "execution engine override: 'batch' (the lane engine, "
            "the library default inside its conformance-verified domain) or "
            "'event' (the general event-driven simulator).  Omitted, every "
            "cell keeps its own declaration; either choice overrides all "
            "cells, and cells outside the batch domain fall back to 'event' "
            "transparently"
        ),
    )
    parser.add_argument("--list-protocols", action=_ListProtocolsAction)
    subparsers = parser.add_subparsers(dest="command", required=True)

    table_cmd = subparsers.add_parser(
        "table", help="regenerate one table (paper 4.x or extension Ex)"
    )
    table_cmd.add_argument(
        "number",
        choices=sorted(_TABLES) + sorted(_EXTENSION_TABLES),
        help="table number",
    )

    figure_cmd = subparsers.add_parser("figure", help="regenerate Figure 4.1")
    figure_cmd.add_argument(
        "number", choices=["4.1"], nargs="?", default="4.1", help="figure number"
    )
    figure_cmd.add_argument(
        "--csv",
        metavar="PATH",
        default=None,
        help="also write the CDF series as CSV for external plotting",
    )

    subparsers.add_parser("all", help="regenerate every table and the figure")
    subparsers.add_parser("protocols", help="list registered protocols")

    faults_cmd = subparsers.add_parser(
        "faults",
        help="run the robustness grid: fault rate x protocol, with watchdog",
    )
    faults_cmd.add_argument(
        "--protocols",
        nargs="+",
        choices=protocol_names(),
        default=list(robustness.ROBUSTNESS_PROTOCOLS),
        help="protocols to inject faults into (must declare fault capabilities)",
    )
    faults_cmd.add_argument(
        "--rates",
        nargs="+",
        type=float,
        default=list(robustness.DEFAULT_FAULT_RATES),
        metavar="RATE",
        help="fault rates (faults per unit simulated time) to sweep",
    )
    faults_cmd.add_argument(
        "--metrics",
        action="store_true",
        help=(
            "run every fault cell with the metrics registry on and print "
            "an aggregated telemetry summary after each panel"
        ),
    )
    faults_cmd.add_argument(
        "--workload",
        choices=robustness.GRID_WORKLOADS,
        default="closed",
        help="grid population: the saturated closed loop (default), "
        "open-loop Poisson, on-off bursty (MMPP), or two-class priority",
    )

    trace_cmd = subparsers.add_parser(
        "trace",
        help="emit one run's arbitration events as JSON lines",
    )
    trace_cmd.add_argument(
        "--protocol", choices=protocol_names(), default="rr", help="arbiter"
    )
    trace_cmd.add_argument("--agents", type=int, default=10, help="number of agents")
    trace_cmd.add_argument(
        "--load", type=float, default=1.5, help="total offered load"
    )
    trace_cmd.add_argument(
        "--cv", type=float, default=1.0, help="inter-request time CV"
    )
    trace_cmd.add_argument(
        "--out",
        metavar="PATH",
        default="-",
        help="trace destination ('-' = stdout, the default)",
    )
    _add_workload_options(trace_cmd)

    metrics_cmd = subparsers.add_parser(
        "metrics",
        help="run one simulation and print its telemetry counters/histograms",
    )
    metrics_cmd.add_argument(
        "--protocol", choices=protocol_names(), default="rr", help="arbiter"
    )
    metrics_cmd.add_argument("--agents", type=int, default=10, help="number of agents")
    metrics_cmd.add_argument(
        "--load", type=float, default=1.5, help="total offered load"
    )
    metrics_cmd.add_argument(
        "--cv", type=float, default=1.0, help="inter-request time CV"
    )
    _add_workload_options(metrics_cmd)

    run_cmd = subparsers.add_parser("run", help="run one ad-hoc simulation")
    run_cmd.add_argument(
        "--protocol", choices=protocol_names(), default="rr", help="arbiter"
    )
    run_cmd.add_argument("--agents", type=int, default=10, help="number of agents")
    run_cmd.add_argument(
        "--load", type=float, default=1.5, help="total offered load"
    )
    run_cmd.add_argument(
        "--cv", type=float, default=1.0, help="inter-request time CV"
    )
    _add_workload_options(run_cmd)

    compare_cmd = subparsers.add_parser(
        "compare", help="run several protocols on one workload, side by side"
    )
    compare_cmd.add_argument(
        "--protocols",
        nargs="+",
        choices=protocol_names(),
        default=["rr", "fcfs", "aap1", "aap2"],
        help="arbiters to compare (same seed: identical arrivals)",
    )
    compare_cmd.add_argument("--agents", type=int, default=10)
    compare_cmd.add_argument("--load", type=float, default=2.0)
    compare_cmd.add_argument("--cv", type=float, default=1.0)
    _add_workload_options(compare_cmd)

    serve_cmd = subparsers.add_parser(
        "serve",
        help="run the arbitration service on a local socket (see docs/service.md)",
    )
    serve_cmd.add_argument(
        "--socket",
        metavar="PATH",
        default=None,
        help="listen socket ($REPRO_SERVICE_SOCKET or the temp-dir default)",
    )
    serve_cmd.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        metavar="N",
        help="admission queue capacity; beyond it submissions are rejected "
        "with a retry-after hint (backpressure, never unbounded buffering)",
    )
    serve_cmd.add_argument(
        "--shards", type=int, default=2, metavar="N", help="process-pool shards"
    )
    serve_cmd.add_argument(
        "--workers", type=int, default=1, metavar="N", help="workers per shard"
    )
    serve_cmd.add_argument(
        "--serial",
        action="store_true",
        help="execute in-process instead of on process pools",
    )
    serve_cmd.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="default per-job wall-clock deadline (jobs may override)",
    )
    serve_cmd.add_argument(
        "--max-cells",
        type=int,
        default=None,
        metavar="N",
        help="default per-job cell budget (larger jobs are rejected)",
    )
    serve_cmd.add_argument(
        "--events",
        metavar="PATH",
        default=None,
        help="stream service lifecycle telemetry as JSON lines to PATH",
    )

    submit_cmd = subparsers.add_parser(
        "submit", help="submit one job to a running service and await it"
    )
    submit_cmd.add_argument(
        "--socket",
        metavar="PATH",
        default=None,
        help="service socket ($REPRO_SERVICE_SOCKET or the temp-dir default)",
    )
    submit_cmd.add_argument(
        "--protocols",
        nargs="+",
        choices=protocol_names(),
        default=["rr"],
        help="one cell per protocol, all on the same workload",
    )
    submit_cmd.add_argument("--agents", type=int, default=10)
    submit_cmd.add_argument("--load", type=float, default=1.5)
    submit_cmd.add_argument("--cv", type=float, default=1.0)
    submit_cmd.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job wall-clock deadline",
    )
    submit_cmd.add_argument("--tag", default=None, help="free-form job label")
    submit_cmd.add_argument(
        "--no-wait",
        action="store_true",
        help="print the job id after admission instead of awaiting results",
    )
    return parser


def _make_session(args) -> Session:
    """One session per invocation: every subcommand routes through it.

    ``--jobs``, ``--cache``/``--cache-dir`` and ``--engine`` configure
    the session's executor backend; ``engine=None`` respects each
    cell's own declaration, while an explicit ``--engine`` (validated
    by argparse against the known engines) overrides every cell,
    reaching the grids that build their settings internally.
    """
    cache = None
    if args.cache or args.cache_dir:
        cache = ResultCache(args.cache_dir)
    return Session(jobs=args.jobs, cache=cache, engine=args.engine)


def _run_settings(args, scale, **extra) -> SimulationSettings:
    """Ad-hoc run settings for the run/compare/trace/metrics commands.

    The engine is *not* set here: the session's ``--engine`` override
    applies uniformly at plan time, so ad-hoc runs and grid sweeps
    resolve their engine in exactly one place.
    """
    return SimulationSettings(
        batches=scale.batches,
        batch_size=scale.batch_size,
        warmup=scale.warmup,
        seed=args.seed,
        **extra,
    )


def _emit_tables(module, scale, seed, executor) -> None:
    for panel in module.run(scale=scale, seed=seed, executor=executor):
        print(panel.render())
        print()


def _run_compare(args, scale, session: Session) -> None:
    from repro.errors import StatisticsError

    scenario = _cli_scenario(args)
    settings = _run_settings(args, scale)
    print(f"scenario: {scenario.notes}  (seed {args.seed}, scale {scale.name})")
    print(
        f"{'protocol':14s} {'λ':>6s} {'mean W':>14s} {'std W':>14s} "
        f"{'t_N/t_1':>16s}"
    )
    for protocol in args.protocols:
        session.submit(scenario, protocol, settings, tag=f"compare/{protocol}")
    outcomes = session.gather()
    for protocol, outcome in zip(args.protocols, outcomes):
        result = outcome.result
        try:
            fairness = fmt_estimate(result.extreme_throughput_ratio())
        except StatisticsError:
            fairness = "starved"
        print(
            f"{protocol:14s} {result.system_throughput().mean:6.2f} "
            f"{fmt_estimate(result.mean_waiting()):>14s} "
            f"{fmt_estimate(result.std_waiting()):>14s} "
            f"{fairness:>16s}"
        )


def _run_trace(args, scale, session: Session) -> None:
    """``trace``: stream one run's arbitration events as JSON lines.

    The trace goes through the run's own :class:`JsonlSink` (via
    ``telemetry.jsonl_path``), so the bytes written here are exactly the
    bytes the golden-trace suite pins down.
    """
    scenario = _cli_scenario(args)
    settings = _run_settings(
        args, scale, telemetry=TelemetrySettings(events=True, jsonl_path=args.out)
    )
    result = session.simulate(scenario, args.protocol, settings)
    if args.out != "-":
        count = len(result.events) if result.events is not None else 0
        print(f"{count} arbitration events written to {args.out}")


def _run_metrics(args, scale, session: Session) -> None:
    """``metrics``: one run's telemetry counters and histograms.

    Flow scenarios (open-loop arrivals or a priority class) additionally
    report the fairness block: Jain indices, per-class waiting-time
    percentiles and per-flow service shares.  Closed-loop output is
    byte-identical to what it was before the fairness layer existed.
    """
    from repro.analysis.fairness import fairness_report, render_fairness

    scenario = _cli_scenario(args)
    settings = _run_settings(
        args,
        scale,
        telemetry=TelemetrySettings(metrics=True),
        keep_records=any(
            agent.open_loop or agent.priority_fraction > 0.0
            for agent in scenario.agents
        ),
    )
    result = session.simulate(scenario, args.protocol, settings)
    print(
        f"protocol {args.protocol} on {scenario.name} "
        f"(seed {args.seed}, scale {scale.name})"
    )
    assert result.metrics is not None
    print(render_metrics(result.metrics))
    report = fairness_report(result)
    if report["jain_flows"] is not None:
        print()
        print(render_fairness(report))


def _summarise_fault_metrics(table) -> Optional[str]:
    """Aggregate the per-cell metrics snapshots of one robustness panel."""
    totals: dict = {}
    for record in table.data:
        snapshot = record.get("metrics")
        if not snapshot:
            continue
        for name, value in snapshot["counters"].items():
            totals[name] = totals.get(name, 0) + value
    if not totals:
        return None
    body = "  ".join(f"{name}={totals[name]}" for name in sorted(totals))
    return f"telemetry totals: {body}"


def _run_serve(args) -> None:
    """``serve``: the arbitration service on a local socket, until shutdown."""
    from repro.service.server import ServiceServer, default_socket_path
    from repro.service.service import ArbitrationService, ServiceConfig

    cache = None
    if args.cache or args.cache_dir:
        cache = ResultCache(args.cache_dir)
    config = ServiceConfig(
        queue_limit=args.queue_limit,
        shards=args.shards,
        workers=args.workers,
        serial=args.serial,
        default_deadline=args.deadline,
        default_max_cells=args.max_cells,
        jsonl_path=args.events,
    )
    service = ArbitrationService(cache=cache, config=config)
    socket_path = args.socket if args.socket is not None else default_socket_path()
    mode = "serial" if args.serial else f"{args.shards}x{args.workers} workers"
    print(f"serving on {socket_path} ({mode}); stop with the 'shutdown' op")
    ServiceServer(service, socket_path).run()


def _run_submit(args, scale) -> None:
    """``submit``: one job to a running service, honouring backpressure."""
    from repro.service.client import ServiceClient
    from repro.session.request import RunRequest

    scenario = equal_load(args.agents, args.load, cv=args.cv)
    settings = _run_settings(args, scale)
    requests = [
        RunRequest(scenario, protocol, settings) for protocol in args.protocols
    ]
    with ServiceClient(args.socket) as client:
        summary = client.submit_retry(
            requests, deadline=args.deadline, tag=args.tag
        )
        if summary["state"] == "rejected":
            raise ReproError(f"job rejected: {summary.get('error')}")
        if args.no_wait:
            print(f"{summary['job_id']} {summary['state']}")
            return
        summary = client.wait(summary["job_id"])
    print(f"job {summary['job_id']}: {summary['state']}", end="")
    if summary.get("elapsed") is not None:
        print(f" in {summary['elapsed']:.3f}s", end="")
    print()
    if summary["state"] != "done":
        raise ReproError(summary.get("error") or f"job {summary['state']}")
    print(f"{'protocol':14s} {'route':>6s} {'util':>6s} {'λ':>7s} {'mean W':>8s}")
    for cell in summary.get("results", []):
        throughput = cell.get("throughput")
        waiting = cell.get("mean_waiting")
        print(
            f"{cell['protocol']:14s} {cell['route']:>6s} "
            f"{cell['utilization']:6.3f} "
            f"{throughput if throughput is None else format(throughput, '7.2f')} "
            f"{waiting if waiting is None else format(waiting, '8.2f')}"
        )


def _run_single(args, scale, session: Session) -> None:
    scenario = _cli_scenario(args)
    settings = _run_settings(args, scale)
    result = session.simulate(scenario, args.protocol, settings)
    print(f"protocol          : {args.protocol}")
    print(f"scenario          : {scenario.name}")
    print(f"bus utilisation   : {result.utilization:.3f}")
    print(f"throughput (λ)    : {fmt_estimate(result.system_throughput())}")
    print(f"mean W            : {fmt_estimate(result.mean_waiting())}")
    print(f"std W             : {fmt_estimate(result.std_waiting())}")
    print(f"t_N/t_1 fairness  : {fmt_estimate(result.extreme_throughput_ratio())}")


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "faults":
        # Enum-like choices (--engine, --protocols, table/figure numbers,
        # --scale) are validated by argparse; numeric flags get the same
        # treatment here so bad values exit 2 with a usage message
        # instead of surfacing mid-run.
        bad = [f"{rate:g}" for rate in args.rates if rate <= 0.0]
        if bad:
            parser.error(f"--rates must be > 0, got: {', '.join(bad)}")
    if getattr(args, "arrival", "closed") == "closed" and getattr(
        args, "outstanding", 1
    ) != 1:
        parser.error("--outstanding needs an open-loop arrival model "
                     "(--arrival poisson|bursty)")
    try:
        # Inside the try: an invalid $REPRO_SCALE raises ReproError and
        # must exit 1 with a clean message, not a traceback.
        scale = current_scale(args.scale)
        if args.command == "table":
            session = _make_session(args)
            if args.number in _EXTENSION_TABLES:
                print(
                    _EXTENSION_TABLES[args.number](scale, args.seed, session).render()
                )
                print()
            else:
                _emit_tables(_TABLES[args.number], scale, args.seed, session)
        elif args.command == "figure":
            figure = figure_4_1.run(
                scale=scale, seed=args.seed, executor=_make_session(args)
            )
            print(figure.render())
            if args.csv:
                with open(args.csv, "w", encoding="utf-8") as handle:
                    handle.write(figure.series_csv())
                print(f"(series written to {args.csv})")
        elif args.command == "all":
            session = _make_session(args)
            for number in sorted(_TABLES):
                _emit_tables(_TABLES[number], scale, args.seed, session)
            print(figure_4_1.run(scale=scale, seed=args.seed, executor=session).render())
        elif args.command == "protocols":
            print(render_protocol_listing())
        elif args.command == "faults":
            telemetry = TelemetrySettings(metrics=True) if args.metrics else None
            tables = robustness.run(
                protocols=args.protocols,
                rates=args.rates,
                scale=scale,
                seed=args.seed,
                executor=_make_session(args),
                telemetry=telemetry,
                engine=args.engine or "batch",
                workload=args.workload,
            )
            for panel in tables:
                print(panel.render())
                summary = _summarise_fault_metrics(panel)
                if summary is not None:
                    print(summary)
                print()
        elif args.command == "trace":
            _run_trace(args, scale, _make_session(args))
        elif args.command == "metrics":
            _run_metrics(args, scale, _make_session(args))
        elif args.command == "run":
            _run_single(args, scale, _make_session(args))
        elif args.command == "compare":
            _run_compare(args, scale, _make_session(args))
        elif args.command == "serve":
            _run_serve(args)
        elif args.command == "submit":
            _run_submit(args, scale)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0

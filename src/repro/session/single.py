"""The per-cell execution path: engine dispatch plus the event body.

:func:`run_cell` is what
:func:`~repro.experiments.runner.run_simulation` delegates to: it runs
``engine="batch"`` cells inside the batch domain on
:func:`repro.engine.batch.run_simulation_batch` and everything else on
:func:`run_cell_event`, the general event-driven simulation assembled
from the bus model, fault injector, watchdog, telemetry sinks and
completion collector.  An error either engine raises propagates: the
engines are bit-identical, errors included, so a rerun on the other
would only raise it again.  :func:`run_request` is the one place an
orchestrated cell runs: ``run_cell`` on a private scenario copy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.bus.model import BusSystem
from repro.bus.watchdog import BusWatchdog
from repro.engine.batch import batch_capable, run_simulation_batch
from repro.faults.injector import FaultInjector
from repro.observability.metrics import MetricsRegistry
from repro.observability.sinks import EventSink, InMemorySink, JsonlSink, TeeSink
from repro.protocols.registry import get_spec, make_arbiter
from repro.stats.collector import CompletionCollector
from repro.stats.summary import RunResult
from repro.workload.scenarios import ScenarioSpec, fresh_scenario

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.experiments.runner import SimulationSettings
    from repro.session.request import RunRequest

__all__ = ["run_cell", "run_cell_event", "run_request"]


def run_cell(
    scenario: ScenarioSpec,
    protocol: str,
    settings: Optional["SimulationSettings"] = None,
) -> RunResult:
    """Run one cell: batch engine inside its domain, event otherwise."""
    if settings is None:
        from repro.experiments.runner import SimulationSettings

        settings = SimulationSettings()
    if settings.engine == "batch" and batch_capable(scenario, protocol, settings)[0]:
        return run_simulation_batch(scenario, protocol, settings)
    return run_cell_event(scenario, protocol, settings)


def run_request(request: "RunRequest") -> RunResult:
    """Run one request against a private copy of its scenario's state.

    Every orchestrated per-cell run — in-process or in a pool worker —
    goes through here.  The copy
    (:func:`~repro.workload.scenarios.fresh_scenario`) makes stateful
    distributions (MMPP phases, trace replay) start from the same
    position however many requests share one scenario object, exactly as
    a payload that crossed a process boundary would; a scenario without
    one needs no copy.
    """
    return run_cell(fresh_scenario(request.scenario), request.protocol, request.settings)


def run_cell_event(
    scenario: ScenarioSpec,
    protocol: str,
    settings: "SimulationSettings",
) -> RunResult:
    """The general event-driven simulation of one cell.

    The random streams depend only on ``settings.seed`` and the agent
    identities, so two protocols run with the same seed see *identical*
    arrival processes — the common-random-numbers discipline behind the
    paper's protocol comparisons.
    """
    needed_capacity = max(spec.max_outstanding for spec in scenario.agents)
    arbiter = make_arbiter(protocol, scenario.num_agents, needed_capacity)
    injector: Optional[FaultInjector] = None
    watchdog: Optional[BusWatchdog] = None
    if settings.fault_plan is not None and len(settings.fault_plan):
        # Validate the plan against the protocol's declared fault
        # capabilities now, before any event runs.
        get_spec(protocol).check_faults(settings.fault_plan.kinds())
        injector = FaultInjector(settings.fault_plan)
        watchdog = BusWatchdog(settings.watchdog)
    elif settings.watchdog is not None:
        watchdog = BusWatchdog(settings.watchdog)
    memory: Optional[InMemorySink] = None
    jsonl: Optional[JsonlSink] = None
    sink: Optional[EventSink] = None
    metrics: Optional[MetricsRegistry] = None
    if settings.telemetry is not None:
        sinks = []
        if settings.telemetry.events:
            memory = InMemorySink()
            sinks.append(memory)
        if settings.telemetry.jsonl_path is not None:
            jsonl = JsonlSink(settings.telemetry.jsonl_path)
            sinks.append(jsonl)
        if sinks:
            sink = sinks[0] if len(sinks) == 1 else TeeSink(*sinks)
        if settings.telemetry.metrics:
            metrics = MetricsRegistry()
    collector = CompletionCollector(
        batches=settings.batches,
        batch_size=settings.batch_size,
        warmup=settings.warmup,
        keep_samples=settings.keep_samples,
        keep_order=settings.keep_order,
        keep_records=settings.keep_records,
    )
    system = BusSystem(
        scenario=scenario,
        arbiter=arbiter,
        collector=collector,
        timing=settings.timing,
        seed=settings.seed,
        injector=injector,
        watchdog=watchdog,
        sink=sink,
        metrics=metrics,
    )
    try:
        system.run(max_events=settings.max_events)
    finally:
        if jsonl is not None:
            jsonl.close()
    return RunResult(
        scenario=scenario,
        protocol=protocol,
        collector=collector,
        utilization=system.utilization(),
        elapsed=system.simulator.now,
        seed=settings.seed,
        confidence=settings.confidence,
        failed=watchdog.gave_up if watchdog is not None else False,
        events=memory.events if memory is not None else None,
        metrics=metrics,
    )

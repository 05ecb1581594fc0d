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
from repro.engine.batch import batch_capable, run_simulation_batch
from repro.engine.cell import CellAssembly
from repro.observability.sinks import EventSink, TeeSink
from repro.protocols.registry import make_arbiter
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
    cell = CellAssembly(scenario, protocol, settings)
    sinks = cell.sinks()
    sink: Optional[EventSink] = None
    if sinks:
        sink = sinks[0] if len(sinks) == 1 else TeeSink(*sinks)
    system = BusSystem(
        scenario=scenario,
        arbiter=arbiter,
        collector=cell.collector,
        timing=settings.timing,
        seed=settings.seed,
        injector=cell.injector,
        watchdog=cell.watchdog,
        sink=sink,
        metrics=cell.metrics,
    )
    try:
        system.run(max_events=settings.max_events)
    finally:
        cell.close()
    return cell.result(system.utilization(), system.simulator.now)

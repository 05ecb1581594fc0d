"""What one cell's run is built from, whichever engine runs it.

The event-driven engine (:func:`repro.session.single.run_cell_event`)
and a lane of the batch engine (:mod:`repro.engine.batch`) assemble a
cell alike: a completion collector sized by the settings, the fault
wiring, the telemetry sinks, and a :class:`~repro.stats.summary.RunResult`
from what the run leaves.  :class:`CellAssembly` holds that policy
once.  Each engine still fans telemetry out its own way: a lane emits
to a tuple of sinks, ``BusSystem`` takes one ``sink=`` and a
``metrics=`` registry.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.bus.watchdog import BusWatchdog
from repro.faults.injector import FaultInjector
from repro.observability.metrics import MetricsRegistry
from repro.observability.sinks import EventSink, InMemorySink, JsonlSink
from repro.protocols.registry import get_spec
from repro.stats.collector import CompletionCollector
from repro.stats.summary import RunResult
from repro.workload.scenarios import ScenarioSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.runner import SimulationSettings

__all__ = ["CellAssembly"]


class CellAssembly:
    """One cell's collector, fault wiring and telemetry, built from its
    settings, and the :class:`RunResult` they end in.

    A non-empty fault plan is checked against the protocol's declared
    fault capabilities and implies a watchdog (``settings.watchdog``
    overrides its policy); a watchdog policy alone still attaches one.
    """

    __slots__ = (
        "scenario",
        "protocol",
        "settings",
        "collector",
        "injector",
        "watchdog",
        "memory",
        "jsonl",
        "metrics",
    )

    def __init__(
        self, scenario: ScenarioSpec, protocol: str, settings: "SimulationSettings"
    ) -> None:
        self.scenario = scenario
        self.protocol = protocol
        self.settings = settings
        plan = settings.fault_plan
        self.injector: Optional[FaultInjector] = None
        self.watchdog: Optional[BusWatchdog] = None
        if plan is not None and len(plan):
            get_spec(protocol).check_faults(plan.kinds())
            self.injector = FaultInjector(plan)
            self.watchdog = BusWatchdog(settings.watchdog)
        elif settings.watchdog is not None:
            self.watchdog = BusWatchdog(settings.watchdog)
        self.collector = CompletionCollector(
            batches=settings.batches,
            batch_size=settings.batch_size,
            warmup=settings.warmup,
            keep_samples=settings.keep_samples,
            keep_order=settings.keep_order,
            keep_records=settings.keep_records,
        )
        self.memory: Optional[InMemorySink] = None
        self.jsonl: Optional[JsonlSink] = None
        self.metrics: Optional[MetricsRegistry] = None
        telemetry = settings.telemetry
        if telemetry is not None:
            if telemetry.events:
                self.memory = InMemorySink()
            if telemetry.jsonl_path is not None:
                self.jsonl = JsonlSink(telemetry.jsonl_path)
            if telemetry.metrics:
                self.metrics = MetricsRegistry()

    def sinks(self) -> List[EventSink]:
        """The event sinks the telemetry asks for, in-memory first."""
        return [sink for sink in (self.memory, self.jsonl) if sink is not None]

    def close(self) -> None:
        """Close the JSONL stream, if the run writes one."""
        if self.jsonl is not None:
            self.jsonl.close()

    def result(self, utilization: float, elapsed: float) -> RunResult:
        """The finished run's result; its collector must have ended the run."""
        settings = self.settings
        watchdog = self.watchdog
        return RunResult(
            scenario=self.scenario,
            protocol=self.protocol,
            collector=self.collector,
            utilization=utilization,
            elapsed=elapsed,
            seed=settings.seed,
            confidence=settings.confidence,
            failed=watchdog.gave_up if watchdog is not None else False,
            events=self.memory.events if self.memory is not None else None,
            metrics=self.metrics,
        )

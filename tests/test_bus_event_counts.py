"""The event engine runs the same events in the same order.

The bus, its agents and the fault injector all post bare actions on the
simulator's one calendar.  These tests pin what that must not change:
the number of events a cell executes (``events_executed``, which also
drives the ``max_events`` guard in the cache key), the clock where the
run stops, and the event at which ``max_events`` raises.  The pinned
numbers were read from the engine that scheduled every bus event as a
labelled event object.
"""

from dataclasses import replace

import pytest

from repro.bus.model import BusSystem
from repro.bus.timing import BusTiming
from repro.bus.watchdog import WatchdogPolicy
from repro.engine.cell import CellAssembly
from repro.errors import SimulationError
from repro.experiments.runner import SimulationSettings, make_arbiter
from repro.faults.plan import FaultKind, FaultPlan
from repro.protocols.registry import get_spec
from repro.workload.arrivals import two_class_priority_load
from repro.workload.scenarios import equal_load, open_loop_equal_load

BASE = SimulationSettings(batches=2, batch_size=200, warmup=20, seed=300, engine="event")

#: Line glitches, stuck lines and dropouts at a rate that makes the
#: watchdog retry (and, with one attempt allowed, give up).
PLAN = FaultPlan.generate(
    seed=7,
    rate=0.3,
    horizon=400.0,
    kinds=(FaultKind.LINE_GLITCH, FaultKind.STUCK_LINE, FaultKind.AGENT_DROPOUT),
    num_agents=8,
    start=5.0,
    line_span=get_spec("rr").number_width(8),
)

CELLS = {
    "rr self-timed": (equal_load(10, 2.0), "rr", BASE),
    "fcfs-aincr clocked": (
        equal_load(8, 2.0),
        "fcfs-aincr",
        replace(BASE, timing=BusTiming(clock_period=0.3)),
    ),
    "fcfs open-loop": (open_loop_equal_load(8, 0.9, max_outstanding=2), "fcfs", BASE),
    "rr two-class": (two_class_priority_load(8, 3.0), "rr", BASE),
    "rr faulted": (
        equal_load(8, 3.0),
        "rr",
        replace(BASE, fault_plan=PLAN, watchdog=WatchdogPolicy()),
    ),
    "rr gives up": (
        equal_load(8, 3.0),
        "rr",
        replace(BASE, fault_plan=PLAN, watchdog=WatchdogPolicy(max_attempts=1)),
    ),
}

#: Per cell: events executed, the clock at the stop, completions,
#: anomalies and whether the watchdog gave up.
EXPECTED = {
    "rr self-timed": (1691, 420.6035431646665, 420, {}, None),
    "fcfs-aincr clocked": (1696, 422.29999999999995, 420, {}, None),
    "fcfs open-loop": (1813, 489.1416306072948, 420, {}, None),
    "rr two-class": (1688, 420.5431429852777, 420, {}, None),
    "rr faulted": (1798, 425.0431429852777, 420, {"duplicate-winner": 9}, False),
    "rr gives up": (279, 65.54314298527771, 65, {"duplicate-winner": 1}, True),
}


def _system(scenario, protocol, settings):
    """The cell's bus, wired as the event engine wires it."""
    capacity = max(spec.max_outstanding for spec in scenario.agents)
    cell = CellAssembly(scenario, protocol, settings)
    return BusSystem(
        scenario=scenario,
        arbiter=make_arbiter(protocol, scenario.num_agents, capacity),
        collector=cell.collector,
        timing=settings.timing,
        seed=settings.seed,
        injector=cell.injector,
        watchdog=cell.watchdog,
    )


@pytest.mark.parametrize("name", sorted(CELLS))
def test_cell_executes_the_pinned_events(name):
    system = _system(*CELLS[name])
    system.run()
    collector = system.collector
    watchdog = system.watchdog
    assert (
        system.simulator.events_executed,
        system.simulator.now,
        collector.total_recorded,
        collector.anomalies,
        watchdog.gave_up if watchdog is not None else None,
    ) == EXPECTED[name]


def test_max_events_raises_at_the_pinned_event():
    system = _system(*CELLS["rr self-timed"])
    with pytest.raises(SimulationError, match="max_events=999"):
        system.run(max_events=999)
    assert system.simulator.events_executed == 999
    assert system.simulator.now == 248.10354316466652
    assert system.collector.total_recorded == 247

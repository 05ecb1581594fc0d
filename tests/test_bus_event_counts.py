"""The event engine runs the same events in the same order.

The bus posts its own events as bare calendar entries while the public
API and the fault injector schedule cancellable :class:`Event` objects.
These tests pin what that must not change: the number of events a cell
executes (``events_executed``, which also drives the ``max_events``
guard in the cache key), the clock where the run stops, and the event
at which ``max_events`` raises.  The pinned numbers were read from the
engine that scheduled every bus event as an :class:`Event` with a label.
"""

from dataclasses import replace

import pytest

from repro.bus.model import BusSystem
from repro.bus.timing import BusTiming
from repro.bus.watchdog import WatchdogPolicy
from repro.engine.calendar import EventCalendar
from repro.engine.cell import CellAssembly
from repro.engine.event import Event, EventPriority
from repro.engine.simulator import Simulator
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


class TestMixedCalendar:
    """Cancellable events and bare posts in one calendar."""

    PRIORITY = int(EventPriority.ARB_KICK)

    def _mixed(self):
        calendar = EventCalendar()
        fired = []
        events = {}
        for index in range(6):
            name = f"n{index}"
            if index % 2:
                calendar.post(1.0, self.PRIORITY, lambda name=name: fired.append(name))
            else:
                events[name] = calendar.schedule(
                    1.0,
                    lambda name=name: fired.append(name),
                    priority=EventPriority.ARB_KICK,
                    label=name,
                )
        return calendar, events, fired

    def test_equal_keys_pop_in_insertion_order(self):
        calendar, __, fired = self._mixed()
        while calendar:
            event = calendar.pop()
            assert isinstance(event, Event)
            assert (event.time, event.priority) == (1.0, self.PRIORITY)
            event.fire()
        assert fired == [f"n{index}" for index in range(6)]

    def test_len_and_bool_count_posts_and_skip_cancelled_events(self):
        calendar, events, __ = self._mixed()
        assert len(calendar) == 6
        calendar.cancel(events["n0"])
        calendar.cancel(events["n4"])
        calendar.cancel(events["n4"])
        assert len(calendar) == 4
        assert calendar.peek_time() == 1.0
        assert len(calendar) == 4
        popped = calendar.pop()
        calendar.cancel(popped)
        assert len(calendar) == 3
        calendar.cancel(events["n2"])
        assert len(calendar) == 2 and calendar
        calendar.pop()
        calendar.pop()
        assert len(calendar) == 0 and not calendar
        assert calendar.peek_time() is None

    def test_clear_forgets_posts_and_events(self):
        calendar, events, __ = self._mixed()
        calendar.cancel(events["n2"])
        calendar.clear()
        assert len(calendar) == 0 and not calendar
        calendar.cancel(events["n0"])
        assert len(calendar) == 0
        calendar.post(2.0, self.PRIORITY, lambda: None)
        assert len(calendar) == 1

    def test_untraced_run_fires_posts_and_live_events_in_order(self):
        simulator = Simulator()
        fired = []
        post = simulator.calendar.post
        post(1.0, self.PRIORITY, lambda: fired.append("post-a"))
        dropped = simulator.schedule(1.0, lambda: fired.append("dropped"), EventPriority.ARB_KICK)
        simulator.schedule(1.0, lambda: fired.append("event"), EventPriority.ARB_KICK)
        post(1.0, self.PRIORITY, lambda: fired.append("post-b"))
        post(0.5, int(EventPriority.DEFAULT), lambda: fired.append("early"))
        simulator.cancel(dropped)
        simulator.run()
        assert fired == ["early", "post-a", "event", "post-b"]
        assert simulator.events_executed == 4
        assert simulator.now == 1.0
        assert not simulator.calendar

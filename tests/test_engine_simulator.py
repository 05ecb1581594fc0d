"""Unit tests for repro.engine.simulator."""

import pytest

from repro.engine.event import EventPriority
from repro.engine.simulator import Simulator
from repro.engine.trace import Trace
from repro.errors import SimulationError


class TestClock:
    def test_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_advances_to_event_time(self):
        sim = Simulator()
        sim.schedule(2.5, lambda: None)
        sim.run()
        assert sim.now == 2.5

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-0.1, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_schedule_at_absolute(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(4.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [4.0]


class TestRun:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, lambda: order.append("c"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(2.0, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_events_executed_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_executed == 5

    def test_event_can_schedule_more(self):
        sim = Simulator()
        seen = []

        def chain(depth):
            seen.append(depth)
            if depth < 3:
                sim.schedule(1.0, lambda: chain(depth + 1))

        sim.schedule(0.0, lambda: chain(0))
        sim.run()
        assert seen == [0, 1, 2, 3]
        assert sim.now == 3.0

    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0
        assert len(sim.calendar) == 1

    def test_run_until_with_empty_calendar_advances_clock(self):
        sim = Simulator()
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_stop_condition(self):
        sim = Simulator()
        fired = []

        def fire(i):
            fired.append(i)
            if i in (2, 3):
                sim.stop()

        for i in range(10):
            sim.schedule(float(i + 1), lambda i=i: fire(i))
        sim.run()
        assert fired == [0, 1, 2]
        assert sim.events_executed == 3
        assert sim.now == 3.0
        assert len(sim.calendar) == 7
        # The next run goes on from the stop; a stop inside step() ends
        # just that event.
        assert sim.step()
        assert fired == [0, 1, 2, 3]
        sim.run(until=6.5)
        assert fired == [0, 1, 2, 3, 4, 5]
        assert sim.now == 6.5

    def test_max_events_guard(self):
        sim = Simulator()

        def forever():
            sim.schedule(1.0, forever)

        sim.schedule(0.0, forever)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_not_reentrant(self):
        sim = Simulator()
        errors = []

        def recurse():
            try:
                sim.run()
            except SimulationError as error:
                errors.append(error)

        sim.schedule(1.0, recurse)
        sim.run()
        assert len(errors) == 1

    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False

    def test_step_fires_one_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(2.0, lambda: fired.append(2))
        assert sim.step() is True
        assert fired == [1]

    def test_cancelled_event_not_fired(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append("cancelled"))
        sim.schedule(2.0, lambda: fired.append("kept"))
        sim.cancel(event)
        sim.run()
        assert fired == ["kept"]


class TestTraceIntegration:
    def test_trace_records_fired_events(self):
        trace = Trace()
        sim = Simulator(trace=trace)
        sim.schedule(1.0, lambda: None, label="one")
        sim.schedule(2.0, lambda: None, label="two", priority=EventPriority.GRANT)
        sim.run()
        assert trace.labels() == ["one", "two"]

    def test_trace_records_times(self):
        trace = Trace()
        sim = Simulator(trace=trace)
        sim.schedule(1.5, lambda: None, label="x")
        sim.run()
        record = next(iter(trace))
        assert record.time == 1.5

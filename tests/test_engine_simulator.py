"""Unit tests for repro.engine.simulator."""

import pytest

from repro.engine.simulator import EventPriority, Simulator
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

    def test_post_at_absolute_time(self):
        sim = Simulator()
        fired = []
        sim.post(4.0, EventPriority.DEFAULT, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [4.0]

    def test_past_post_raises_when_it_comes_up(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        sim.post(1.0, EventPriority.DEFAULT, lambda: None)
        with pytest.raises(SimulationError, match="past event at 1.0 < 5.0"):
            sim.run()


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
        sim.run()
        assert fired == [1, 10]

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
        # The next run goes on from the stop; a stop inside step() ends
        # just that event.
        assert sim.step()
        assert fired == [0, 1, 2, 3]
        sim.run(until=6.5)
        assert fired == [0, 1, 2, 3, 4, 5]
        assert sim.now == 6.5
        sim.run()
        assert fired == list(range(10))
        assert sim.events_executed == 10

    def test_max_events_guard(self):
        sim = Simulator()

        def forever():
            sim.schedule(1.0, forever)

        sim.schedule(0.0, forever)
        with pytest.raises(SimulationError, match="max_events=100"):
            sim.run(max_events=100)
        assert sim.events_executed == 100
        assert sim.now == 99.0

    def test_max_events_counts_from_the_run_and_raises_on_the_last(self):
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.schedule(float(i), lambda i=i: fired.append(i))
        sim.step()
        # The limit is reached on the run's third event, which fires;
        # reaching it raises even though two events are left.
        with pytest.raises(SimulationError):
            sim.run(max_events=3)
        assert fired == [0, 1, 2, 3]
        sim.run(max_events=5)
        assert fired == [0, 1, 2, 3, 4]

    def test_not_reentrant(self):
        sim = Simulator()
        errors = []

        def recurse():
            try:
                sim.run()
            except SimulationError as error:
                errors.append(error)

        sim.schedule(1.0, recurse)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert len(errors) == 1
        assert "not re-entrant" in str(errors[0])
        # The refused inner run fired nothing; the outer run went on.
        assert sim.events_executed == 2

    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False

    def test_step_fires_one_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(2.0, lambda: fired.append(2))
        assert sim.step() is True
        assert fired == [1]


class TestEventPriority:
    def test_release_before_grant(self):
        assert EventPriority.RELEASE < EventPriority.GRANT

    def test_grant_before_arbitration(self):
        assert EventPriority.GRANT < EventPriority.ARBITRATION

    def test_arbitration_before_request(self):
        assert EventPriority.ARBITRATION < EventPriority.REQUEST

    def test_request_before_arb_kick(self):
        # The kick must run after all same-instant requests so the
        # competitor snapshot is complete.
        assert EventPriority.REQUEST < EventPriority.ARB_KICK

    def test_priorities_are_ints(self):
        for priority in EventPriority:
            assert isinstance(priority.value, int)

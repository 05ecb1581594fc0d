"""Unit tests for the simulator's event calendar: its order and its checks."""

import pytest

from repro.engine.simulator import EventPriority, Simulator
from repro.errors import SimulationError


def _noop():
    pass


def _recording():
    """A simulator and a ``schedule(delay, label, priority)`` that posts
    an action appending ``label`` to the returned list when it fires."""
    simulator = Simulator()
    fired = []

    def schedule(delay, label, priority=EventPriority.DEFAULT):
        simulator.schedule(delay, lambda: fired.append(label), priority)

    return simulator, schedule, fired


def _assert_rejected(delay):
    """``schedule`` raises on ``delay`` and leaves the calendar empty."""
    simulator = Simulator()
    with pytest.raises(SimulationError):
        simulator.schedule(delay, _noop)
    assert simulator.step() is False


class TestScheduling:
    def test_pop_returns_earliest(self):
        simulator, schedule, fired = _recording()
        schedule(5.0, "late")
        schedule(1.0, "early")
        assert simulator.step()
        assert fired == ["early"]

    def test_negative_time_rejected(self):
        _assert_rejected(-1.0)

    def test_nan_time_rejected(self):
        _assert_rejected(float("nan"))

    def test_infinite_time_rejected(self):
        _assert_rejected(float("inf"))


class TestOrdering:
    def test_priority_breaks_time_ties(self):
        simulator, schedule, fired = _recording()
        schedule(1.0, "request", EventPriority.REQUEST)
        schedule(1.0, "release", EventPriority.RELEASE)
        simulator.step()
        assert fired == ["release"]

    def test_fifo_among_equal_time_and_priority(self):
        simulator, schedule, fired = _recording()
        for name in ("first", "second", "third"):
            schedule(1.0, name)
        simulator.run()
        assert fired == ["first", "second", "third"]

    def test_full_drain_is_time_sorted(self):
        simulator = Simulator()
        times = [5.0, 1.0, 3.0, 2.0, 4.0]
        fired = []
        for time in times:
            simulator.schedule(time, lambda: fired.append(simulator.now))
        simulator.run()
        assert fired == sorted(times)

    def test_posts_and_schedules_share_one_sequence(self):
        simulator, schedule, fired = _recording()
        kick = int(EventPriority.ARB_KICK)
        simulator.post(1.0, kick, lambda: fired.append("post-a"))
        schedule(1.0, "scheduled", EventPriority.ARB_KICK)
        simulator.post(1.0, kick, lambda: fired.append("post-b"))
        simulator.post(0.5, int(EventPriority.DEFAULT), lambda: fired.append("early"))
        simulator.run()
        assert fired == ["early", "post-a", "scheduled", "post-b"]
        assert simulator.events_executed == 4
        assert simulator.now == 1.0

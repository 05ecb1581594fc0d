"""Model-based stress tests of the simulator's event calendar and clock.

A reference model (sorted list with explicit tie-break keys) runs next
to the simulator's heap through random schedule/step interleavings; the
two must agree on every event fired.
"""

from hypothesis import given, settings as hyp_settings, strategies as st

from repro.engine.simulator import Simulator


class _ReferenceCalendar:
    """The obvious O(n log n) implementation, used as the oracle."""

    def __init__(self):
        self.items = []
        self.sequence = 0

    def schedule(self, time, priority, label):
        self.items.append((time, priority, self.sequence, label))
        self.sequence += 1

    def pop(self):
        self.items.sort()
        return self.items.pop(0)[3]


operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("schedule"),
            st.floats(min_value=0.0, max_value=100.0),
            st.integers(min_value=0, max_value=5),
        ),
        st.tuples(st.just("pop")),
    ),
    min_size=1,
    max_size=120,
)


class TestCalendarAgainstReference:
    @given(operations)
    @hyp_settings(max_examples=60, deadline=None)
    def test_pops_agree_with_reference(self, ops):
        simulator = Simulator()
        reference = _ReferenceCalendar()
        fired = []
        for index, op in enumerate(ops):
            if op[0] == "schedule":
                # The delay counts from the clock, which each pop moves
                # to the fired event's time.
                __, delay, priority = op
                label = f"e{index}"
                simulator.schedule(
                    delay, lambda label=label: fired.append(label), priority
                )
                reference.schedule(simulator.now + delay, priority, label)
            else:
                assert simulator.step() is bool(reference.items)
                if reference.items:
                    assert fired.pop() == reference.pop()
        # Drain both completely and compare the tails.
        simulator.run()
        tail = []
        while reference.items:
            tail.append(reference.pop())
        assert fired == tail


class TestSimulatorClockMonotonicity:
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=50.0), min_size=1, max_size=60
        )
    )
    @hyp_settings(max_examples=50, deadline=None)
    def test_fire_times_never_regress(self, delays):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule(delay, lambda: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(
        st.lists(
            st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=30
        )
    )
    @hyp_settings(max_examples=50, deadline=None)
    def test_chained_scheduling_accumulates(self, delays):
        sim = Simulator()
        remaining = list(delays)
        fired = []

        def step():
            fired.append(sim.now)
            if remaining:
                sim.schedule(remaining.pop(0), step)

        sim.schedule(remaining.pop(0), step)
        sim.run()
        assert len(fired) == len(delays)
        assert abs(fired[-1] - sum(delays)) < 1e-6

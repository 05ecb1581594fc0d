"""Tests for deterministic fault plans and the line-fault perturbation.

A plan must be a pure function of its generation arguments (that purity
is what makes a robustness sweep cacheable and reproducible), and the
injector's ``perturb`` must classify perturbed line patterns exactly the
way a hardware monitor would: unique winner, all-zero, or collision.
"""

import json

import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from repro.bus.model import BusSystem
from repro.core.base import ArbitrationOutcome
from repro.errors import ConfigurationError
from repro.faults.injector import FaultInjector
from repro.faults.plan import BUS_LEVEL_FAULTS, FaultEvent, FaultKind, FaultPlan
from repro.protocols.registry import make_arbiter
from repro.stats.collector import CompletionCollector
from repro.workload.scenarios import equal_load

ALL_KINDS = tuple(sorted(FaultKind, key=lambda kind: kind.value))


def _outcome(winner, keys):
    return ArbitrationOutcome(
        winner=winner,
        rounds=1,
        competitors=frozenset(keys),
        keys=dict(keys),
    )


class TestFaultEvent:
    def test_point_fault_end_time_equals_time(self):
        event = FaultEvent(time=3.0, kind=FaultKind.LINE_GLITCH, line=2)
        assert event.end_time == 3.0

    def test_windowed_fault_end_time(self):
        event = FaultEvent(
            time=3.0, kind=FaultKind.STUCK_LINE, line=0, duration=2.5
        )
        assert event.end_time == 5.5

    def test_windowed_kinds_require_duration(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(time=0.0, kind=FaultKind.STUCK_LINE)
        with pytest.raises(ConfigurationError):
            FaultEvent(time=0.0, kind=FaultKind.AGENT_DROPOUT, agent_id=1)

    def test_agent_directed_kinds_require_victim(self):
        for kind in (FaultKind.DROPPED_BROADCAST, FaultKind.COUNTER_UPSET):
            with pytest.raises(ConfigurationError):
                FaultEvent(time=0.0, kind=kind)

    def test_field_validation(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(time=-1.0, kind=FaultKind.LINE_GLITCH)
        with pytest.raises(ConfigurationError):
            FaultEvent(time=0.0, kind=FaultKind.LINE_GLITCH, line=-1)
        with pytest.raises(ConfigurationError):
            FaultEvent(time=0.0, kind=FaultKind.STUCK_LINE, duration=1.0, stuck_value=2)


class TestFaultPlanGenerate:
    def test_pure_function_of_arguments(self):
        args = dict(seed=7, rate=0.05, horizon=400.0, kinds=ALL_KINDS, num_agents=8)
        assert FaultPlan.generate(**args) == FaultPlan.generate(**args)

    def test_seed_changes_the_plan(self):
        base = dict(rate=0.05, horizon=400.0, kinds=ALL_KINDS, num_agents=8)
        assert FaultPlan.generate(seed=7, **base) != FaultPlan.generate(seed=8, **base)

    def test_events_sorted_and_inside_window(self):
        plan = FaultPlan.generate(
            seed=3, rate=0.1, horizon=300.0, kinds=ALL_KINDS, num_agents=5, start=50.0
        )
        assert len(plan) > 0
        times = [event.time for event in plan.events]
        assert times == sorted(times)
        assert all(50.0 <= t < 300.0 for t in times)

    def test_victims_and_kinds_in_range(self):
        plan = FaultPlan.generate(
            seed=11, rate=0.2, horizon=200.0, kinds=ALL_KINDS, num_agents=4
        )
        assert plan.kinds() <= set(ALL_KINDS)
        assert all(1 <= event.agent_id <= 4 for event in plan.events)

    def test_zero_rate_gives_empty_plan(self):
        plan = FaultPlan.generate(
            seed=1, rate=0.0, horizon=100.0, kinds=ALL_KINDS, num_agents=4
        )
        assert len(plan) == 0

    def test_argument_validation(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.generate(seed=1, rate=-0.1, horizon=10.0, kinds=ALL_KINDS, num_agents=2)
        with pytest.raises(ConfigurationError):
            FaultPlan.generate(seed=1, rate=0.1, horizon=1.0, kinds=ALL_KINDS, num_agents=2, start=5.0)
        with pytest.raises(ConfigurationError):
            FaultPlan.generate(seed=1, rate=0.1, horizon=10.0, kinds=(), num_agents=2)
        with pytest.raises(ConfigurationError):
            FaultPlan.generate(seed=1, rate=0.1, horizon=10.0, kinds=ALL_KINDS, num_agents=0)

    @given(
        seed=st.integers(0, 2**31),
        rate=st.floats(0.001, 0.5),
        num_agents=st.integers(1, 16),
    )
    @hyp_settings(max_examples=40, deadline=None)
    def test_generated_plans_always_valid_and_keyable(self, seed, rate, num_agents):
        plan = FaultPlan.generate(
            seed=seed, rate=rate, horizon=150.0, kinds=ALL_KINDS, num_agents=num_agents
        )
        # Every event passed FaultEvent validation; the spec key must be
        # canonical JSON (it feeds the result-cache digest).
        assert json.dumps(plan.spec_key())
        assert plan == FaultPlan.generate(
            seed=seed, rate=rate, horizon=150.0, kinds=ALL_KINDS, num_agents=num_agents
        )


class TestFaultPlanContainer:
    def test_events_sorted_on_construction(self):
        late = FaultEvent(time=9.0, kind=FaultKind.LINE_GLITCH)
        early = FaultEvent(time=1.0, kind=FaultKind.COUNTER_UPSET, agent_id=2)
        plan = FaultPlan(events=(late, early))
        assert plan.events == (early, late)

    def test_of_kind_filters(self):
        plan = FaultPlan(
            events=(
                FaultEvent(time=1.0, kind=FaultKind.LINE_GLITCH),
                FaultEvent(time=2.0, kind=FaultKind.COUNTER_UPSET, agent_id=1),
            )
        )
        assert [e.kind for e in plan.of_kind(FaultKind.LINE_GLITCH)] == [
            FaultKind.LINE_GLITCH
        ]
        assert plan.kinds() == {FaultKind.LINE_GLITCH, FaultKind.COUNTER_UPSET}

    def test_bus_level_faults_exclude_agent_directed_kinds(self):
        assert FaultKind.DROPPED_BROADCAST not in BUS_LEVEL_FAULTS
        assert FaultKind.COUNTER_UPSET not in BUS_LEVEL_FAULTS


class TestPerturb:
    def test_no_due_faults_returns_clean_outcome(self):
        injector = FaultInjector(FaultPlan())
        outcome = _outcome(2, {1: 3, 2: 5})
        perturbed = injector.perturb(outcome, now=10.0)
        assert perturbed.anomaly is None
        assert perturbed.winner == 2
        assert not perturbed.deviated

    def test_glitch_consumed_once_and_can_deviate_winner(self):
        plan = FaultPlan(
            events=(
                FaultEvent(time=1.0, kind=FaultKind.LINE_GLITCH, agent_id=1, line=2),
            )
        )
        injector = FaultInjector(plan)
        # Agent 1's key 3 gains bit 2 -> 7, beating agent 2's 5.
        perturbed = injector.perturb(_outcome(2, {1: 3, 2: 5}), now=1.5)
        assert perturbed.winner == 1
        assert perturbed.deviated
        assert perturbed.anomaly is None
        assert injector.applied == {"line-glitch": 1}
        # The glitch was transient: the next arbitration is untouched.
        again = injector.perturb(_outcome(2, {1: 3, 2: 5}), now=2.0)
        assert again.winner == 2 and not again.deviated

    def test_glitch_falls_back_to_lowest_competitor(self):
        plan = FaultPlan(
            events=(
                FaultEvent(time=1.0, kind=FaultKind.LINE_GLITCH, agent_id=9, line=0),
            )
        )
        injector = FaultInjector(plan)
        perturbed = injector.perturb(_outcome(4, {3: 2, 4: 4}), now=1.0)
        assert perturbed.keys[3] == 3  # agent 9 absent: lowest id hit

    def test_stuck_at_zero_can_erase_every_pattern(self):
        plan = FaultPlan(
            events=(
                FaultEvent(
                    time=1.0, kind=FaultKind.STUCK_LINE, line=0,
                    stuck_value=0, duration=4.0,
                ),
            )
        )
        injector = FaultInjector(plan)
        perturbed = injector.perturb(_outcome(1, {1: 1}), now=2.0)
        assert perturbed.anomaly == "no-winner"

    def test_stuck_at_one_can_collide_adjacent_identities(self):
        plan = FaultPlan(
            events=(
                FaultEvent(
                    time=1.0, kind=FaultKind.STUCK_LINE, line=0,
                    stuck_value=1, duration=4.0,
                ),
            )
        )
        injector = FaultInjector(plan)
        # Keys 4 (100) and 5 (101) differ only on line 0: stuck-at-1
        # makes them identical -> no unique winner on the lines.
        perturbed = injector.perturb(_outcome(5, {4: 4, 5: 5}), now=2.0)
        assert perturbed.anomaly == "duplicate-winner"

    def test_window_expires(self):
        plan = FaultPlan(
            events=(
                FaultEvent(
                    time=1.0, kind=FaultKind.STUCK_LINE, line=0,
                    stuck_value=1, duration=2.0,
                ),
            )
        )
        injector = FaultInjector(plan)
        perturbed = injector.perturb(_outcome(5, {4: 4, 5: 5}), now=3.5)
        assert perturbed.anomaly is None and perturbed.winner == 5

    def test_protocols_without_line_keys_are_untouchable(self):
        plan = FaultPlan(
            events=(
                FaultEvent(time=0.0, kind=FaultKind.LINE_GLITCH, line=1),
            )
        )
        injector = FaultInjector(plan)
        perturbed = injector.perturb(_outcome(3, {}), now=5.0)
        assert perturbed.winner == 3 and perturbed.anomaly is None
        assert injector.applied == {}


class TestPointFaultsWithoutHooks:
    def test_arbiter_without_fault_hooks_skips_them(self):
        # Fixed priority keeps no winner register and no FCFS counter:
        # a dropped broadcast and a counter upset have nothing to hit.
        plan = FaultPlan(
            events=(
                FaultEvent(time=5.0, kind=FaultKind.DROPPED_BROADCAST, agent_id=1),
                FaultEvent(time=6.0, kind=FaultKind.COUNTER_UPSET, agent_id=2, value=3),
            )
        )
        injector = FaultInjector(plan)
        scenario = equal_load(4, 2.0)
        collector = CompletionCollector(batches=2, batch_size=20, warmup=0)
        BusSystem(
            scenario, make_arbiter("fixed", 4), collector, seed=1, injector=injector
        ).run()
        assert injector.skipped == {"dropped-broadcast": 1, "counter-upset": 1}
        assert injector.applied == {}

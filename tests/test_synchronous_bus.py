"""Tests for the synchronous (clock-aligned) bus variant of §2.1."""

import pytest

from repro.bus.model import BusSystem
from repro.bus.timing import BusTiming
from repro.core.round_robin import DistributedRoundRobin
from repro.engine.batch import run_lanes
from repro.errors import ConfigurationError
from repro.stats.collector import CompletionCollector
from repro.workload.distributions import Deterministic
from repro.workload.scenarios import AgentSpec, ScenarioSpec

from _utils import quick_settings
from repro.experiments.runner import SimulationSettings, run_simulation
from repro.workload.scenarios import equal_load


def _micro_scenario(think_times):
    agents = tuple(
        AgentSpec(agent_id=i + 1, interrequest=Deterministic(think))
        for i, think in enumerate(think_times)
    )
    return ScenarioSpec(name="sync-micro", agents=agents)


def _run_micro(think_times, timing, completions=4):
    scenario = _micro_scenario(think_times)
    collector = CompletionCollector(
        batches=2, batch_size=max(1, completions // 2), warmup=0, keep_records=True
    )
    system = BusSystem(
        scenario, DistributedRoundRobin(scenario.num_agents), collector,
        timing=timing, seed=1,
    )
    system.run()
    return collector.records


def _run_micro_lanes(think_times, timing, completions=4):
    """The lane engine's twin of :func:`_run_micro` (same cell, same seed)."""
    settings = SimulationSettings(
        batches=2,
        batch_size=max(1, completions // 2),
        warmup=0,
        keep_records=True,
        seed=1,
        timing=timing,
    )
    (result,) = run_lanes([(_micro_scenario(think_times), "rr", settings)])
    return result.collector.records


class TestTimingHelpers:
    def test_async_default(self):
        timing = BusTiming()
        assert not timing.synchronous
        assert timing.delay_to_next_edge(1.37) == 0.0

    def test_edge_alignment(self):
        timing = BusTiming(clock_period=0.25)
        assert timing.delay_to_next_edge(1.0) == 0.0
        assert timing.delay_to_next_edge(1.1) == pytest.approx(0.15)
        assert timing.delay_to_next_edge(1.25) == 0.0

    def test_edge_boundaries(self):
        timing = BusTiming(clock_period=0.25)
        # Time 0 and 1.0 are edges; below 1.0 the tolerance is 1e-9.
        assert timing.delay_to_next_edge(0.0) == 0.0
        assert timing.delay_to_next_edge(1.0) == 0.0
        assert timing.delay_to_next_edge(5e-10) == 0.0
        assert timing.delay_to_next_edge(0.25 - 5e-10) == 0.0
        assert timing.delay_to_next_edge(2e-9) == 0.25 - 2e-9
        # Past 1.0 the tolerance grows with the clock: 1e-9 * now.
        assert timing.delay_to_next_edge(1.25 + 1e-9) == 0.0
        assert timing.delay_to_next_edge(1.25 + 3e-9) == 0.25 - (1.25 + 3e-9) % 0.25
        assert timing.delay_to_next_edge(1e6 + 5e-4) == 0.0
        assert timing.delay_to_next_edge(1e6 + 2e-3) == 0.25 - (1e6 + 2e-3) % 0.25

        def reference(now):
            # The expression the engines used before: max() of the two.
            period = timing.clock_period
            phase = now % period
            if phase <= 1e-9 * max(1.0, now) or period - phase <= 1e-9 * max(1.0, now):
                return 0.0
            return period - phase

        for now in (0.0, 1e-10, 0.1, 0.999999999, 1.0, 1.0000000001, 1.0 + 2e-9,
                    1.1, 1.37, 2.0 - 1e-9, 2.0 - 3e-9, 12.75, 1e6 + 2e-3, 3e9 + 0.1):
            assert timing.delay_to_next_edge(now) == reference(now), now

    def test_negative_period_rejected(self):
        with pytest.raises(ConfigurationError):
            BusTiming(clock_period=-0.25)


class TestSynchronousMicroTiming:
    run_micro = staticmethod(_run_micro)

    def test_arbitration_waits_for_clock_edge(self):
        # Lone agent, think 1.1: the request at t = 1.1 waits for the
        # 1.25 edge; arbitration runs 1.25-1.75; grant on-edge at 1.75.
        timing = BusTiming(clock_period=0.25)
        records = self.run_micro([1.1], timing, completions=2)
        assert records[0].issue_time == pytest.approx(1.1)
        assert records[0].grant_time == pytest.approx(1.75)
        assert records[0].completion_time == pytest.approx(2.75)

    def test_on_edge_request_starts_immediately(self):
        timing = BusTiming(clock_period=0.25)
        records = self.run_micro([1.0], timing, completions=2)
        assert records[0].grant_time == pytest.approx(1.5)

    def test_grants_land_on_edges(self):
        timing = BusTiming(clock_period=0.25)
        records = self.run_micro([0.6, 0.9], timing, completions=8)
        for record in records:
            phase = record.grant_time % 0.25
            assert min(phase, 0.25 - phase) < 1e-9

    def test_async_bus_unchanged_by_default(self):
        records_default = self.run_micro([1.1], BusTiming(), completions=2)
        assert records_default[0].grant_time == pytest.approx(1.6)


class TestSynchronousMicroTimingLanes(TestSynchronousMicroTiming):
    """The same micro-timings on the lane engine, plus exact record equality."""

    run_micro = staticmethod(_run_micro_lanes)

    @pytest.mark.parametrize("period", [0.25, 0.3])
    def test_lane_records_equal_event_records(self, period):
        # Settle 0.5 after an off-edge release, idle-bus grants and a
        # period that divides neither bus time: every issue, grant and
        # completion time is the event engine's, float for float.
        timing = BusTiming(clock_period=period)
        think = [0.6, 0.9, 1.7]
        expected = [
            (r.agent_id, r.issue_time, r.grant_time, r.completion_time)
            for r in _run_micro(think, timing, completions=16)
        ]
        assert [
            (r.agent_id, r.issue_time, r.grant_time, r.completion_time)
            for r in _run_micro_lanes(think, timing, completions=16)
        ] == expected


class TestSynchronousSystemBehaviour:
    def test_synchronisation_latency_costs_waiting(self):
        scenario = equal_load(8, 0.5)  # light load: idle dispatches dominate
        settings = quick_settings()
        async_run = run_simulation(scenario, "rr", settings)
        from dataclasses import replace

        sync_settings = replace(settings, timing=BusTiming(clock_period=0.5))
        sync_run = run_simulation(scenario, "rr", sync_settings)
        # Roughly a quarter-period of extra wait per request at light
        # load (half the period on average, but only when arriving
        # off-edge to an idle bus).
        assert sync_run.mean_waiting().mean > async_run.mean_waiting().mean
        assert sync_run.mean_waiting().mean < async_run.mean_waiting().mean + 0.5

    def test_saturated_bus_unaffected_by_clocking(self):
        # Under saturation arbitration overlaps tenures whose boundaries
        # are edge-aligned anyway: the clock costs nothing.
        scenario = equal_load(8, 3.0)
        settings = quick_settings()
        async_run = run_simulation(scenario, "rr", settings)
        from dataclasses import replace

        sync_settings = replace(settings, timing=BusTiming(clock_period=0.5))
        sync_run = run_simulation(scenario, "rr", sync_settings)
        assert sync_run.system_throughput().mean == pytest.approx(
            async_run.system_throughput().mean, rel=0.02
        )

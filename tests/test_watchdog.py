"""Tests for the bus watchdog: unit policy behaviour and end-to-end
fault recovery.

The integration tests pin seeds and fault times: the simulation is
deterministic, so each scenario reliably reproduces the §3.1 story —
a stuck line triggers a detected anomaly that the watchdog retries
through, a dropped winner broadcast kills rotating-priority RR
permanently while the static-identity variant sails through, and an
agent dropout window just redistributes bandwidth.
"""

import pytest

from repro.bus.model import BusSystem
from repro.bus.watchdog import BusWatchdog, WatchdogPolicy
from repro.errors import ConfigurationError, NoUniqueWinnerError
from repro.experiments.runner import SimulationSettings, make_arbiter, run_simulation
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.stats.collector import CompletionCollector
from repro.workload.scenarios import equal_load


def _settings(seed, plan=None, **overrides):
    return SimulationSettings(
        batches=3, batch_size=80, warmup=40, seed=seed, fault_plan=plan, **overrides
    )


class TestWatchdogPolicy:
    def test_defaults_are_valid(self):
        policy = WatchdogPolicy()
        assert policy.max_attempts >= 1

    def test_exponential_backoff_sequence(self):
        policy = WatchdogPolicy(max_attempts=5, timeout=0.5, backoff=2.0)
        assert [policy.retry_delay(n) for n in (1, 2, 3)] == [0.5, 1.0, 2.0]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            WatchdogPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            WatchdogPolicy(timeout=0.0)
        with pytest.raises(ConfigurationError):
            WatchdogPolicy(backoff=0.5)

    def test_spec_key_is_canonical(self):
        assert WatchdogPolicy().spec_key() == [6, 0.5, 2.0]


class TestBusWatchdogUnit:
    def test_retries_then_gives_up(self):
        watchdog = BusWatchdog(WatchdogPolicy(max_attempts=3, timeout=1.0))
        assert watchdog.on_anomaly("no-winner", 10.0) == 1.0
        assert watchdog.on_anomaly("no-winner", 11.0) == 2.0
        assert watchdog.on_anomaly("no-winner", 13.0) is None
        assert watchdog.gave_up
        assert watchdog.anomalies_seen == 3

    def test_clean_grant_closes_episode_and_records_latency(self):
        collector = CompletionCollector(batches=2, batch_size=10, warmup=0)
        watchdog = BusWatchdog(WatchdogPolicy(max_attempts=5))
        watchdog.bind(collector)
        watchdog.on_anomaly("duplicate-winner", 10.0)
        watchdog.on_anomaly("duplicate-winner", 11.0)
        watchdog.on_clean_grant(12.5)
        assert watchdog.recoveries == 1
        assert not watchdog.gave_up
        assert collector.recovery_latencies == [2.5]
        assert collector.anomalies == {"duplicate-winner": 2}
        # The next anomaly starts a fresh episode with a fresh budget.
        assert watchdog.on_anomaly("no-winner", 20.0) == watchdog.policy.timeout

    def test_clean_grant_without_episode_is_a_no_op(self):
        watchdog = BusWatchdog()
        watchdog.on_clean_grant(5.0)
        assert watchdog.recoveries == 0

    def test_permanent_failure_recorded_in_collector(self):
        collector = CompletionCollector(batches=2, batch_size=10, warmup=0)
        watchdog = BusWatchdog(WatchdogPolicy(max_attempts=1))
        watchdog.bind(collector)
        assert watchdog.on_anomaly("no-winner", 0.0) is None
        assert collector.permanent_failure


class TestStuckLineRecovery:
    def test_anomaly_detected_and_recovered_within_window(self):
        # Line 0 stuck at 1 collides adjacent identities (§2.1's fully
        # encoded numbers differ in one bit); the watchdog retries until
        # the window clears and records the episode latency.
        plan = FaultPlan(
            events=(
                FaultEvent(
                    time=50.0, kind=FaultKind.STUCK_LINE, line=0,
                    stuck_value=1, duration=5.0,
                ),
            )
        )
        result = run_simulation(equal_load(6, 2.0), "rr", _settings(99, plan))
        assert not result.failed
        assert result.anomaly_counts() == {"duplicate-winner": 1}
        assert result.recovery_latencies() == [1.5]
        assert result.mean_recovery_latency() == 1.5

    def test_failed_run_with_tight_budget(self):
        # A long stuck-at-0 window on every line's LSB with a one-shot
        # watchdog: the first anomaly is terminal and the run still ends
        # gracefully with its partial batches preserved.
        plan = FaultPlan(
            events=(
                FaultEvent(
                    time=50.0, kind=FaultKind.STUCK_LINE, line=0,
                    stuck_value=1, duration=200.0,
                ),
            )
        )
        result = run_simulation(
            equal_load(6, 2.0), "rr",
            _settings(99, plan, watchdog=WatchdogPolicy(max_attempts=1)),
        )
        assert result.failed
        assert sum(result.anomaly_counts().values()) == 1
        assert result.collector.permanent_failure


class TestDroppedBroadcastContrast:
    """§3.1 executed end to end: one missed winner broadcast."""

    PLAN = FaultPlan(
        events=(
            FaultEvent(time=30.0, kind=FaultKind.DROPPED_BROADCAST, agent_id=3),
        )
    )

    def test_rotating_rr_fails_permanently(self):
        result = run_simulation(
            equal_load(10, 2.0), "rotating-rr", _settings(99, self.PLAN)
        )
        assert result.failed
        counts = result.anomaly_counts()
        assert set(counts) == {"duplicate-winner"}
        # Every retry re-raises: the watchdog burns its whole budget.
        assert counts["duplicate-winner"] == WatchdogPolicy().max_attempts
        assert result.recovery_latencies() == []

    def test_static_identity_rr_absorbs_the_same_fault(self):
        result = run_simulation(
            equal_load(10, 2.0), "rr-faulty-register", _settings(99, self.PLAN)
        )
        assert not result.failed
        assert result.anomaly_counts() == {}
        assert result.collector.satisfied()

    def test_without_watchdog_the_failure_raises(self):
        # The same desynchronisation outside the fault harness is a hard
        # protocol error, exactly as before the watchdog existed.
        from repro.baselines.rotating import RotatingPriorityRR

        arbiter = RotatingPriorityRR(5)
        for agent in range(1, 6):
            arbiter.request(agent, 0.0)
        arbiter.drop_winner_observations(2)
        with pytest.raises(NoUniqueWinnerError):
            for __ in range(25):
                outcome = arbiter.start_arbitration(0.0)
                arbiter.grant(outcome.winner, 0.0)
                arbiter.request(outcome.winner, 0.0)


class TestAgentDropout:
    def test_dropout_window_redistributes_bandwidth(self):
        plan = FaultPlan(
            events=(
                FaultEvent(
                    time=50.0, kind=FaultKind.AGENT_DROPOUT,
                    agent_id=2, duration=30.0,
                ),
            )
        )
        faulted = run_simulation(equal_load(6, 2.0), "rr", _settings(99, plan))
        healthy = run_simulation(equal_load(6, 2.0), "rr", _settings(99))
        assert not faulted.failed
        assert faulted.collector.satisfied()
        # The victim lost roughly the window's worth of turns...
        assert faulted.collector.agent_totals[2] < healthy.collector.agent_totals[2]
        # ...but rejoined and kept completing afterwards.
        assert faulted.collector.agent_totals[2] > 0


class TestWithoutWatchdog:
    """A bus with a fault injector and no watchdog raises on the first
    anomaly, whether the line faults or the protocol detect it."""

    def _run(self, protocol, num_agents, plan):
        scenario = equal_load(num_agents, 2.0)
        collector = CompletionCollector(batches=3, batch_size=80, warmup=40)
        system = BusSystem(
            scenario,
            make_arbiter(protocol, num_agents),
            collector,
            seed=99,
            injector=FaultInjector(plan),
        )
        system.run()

    def test_line_fault_anomaly_raises(self):
        plan = FaultPlan(
            events=(
                FaultEvent(
                    time=50.0, kind=FaultKind.STUCK_LINE, line=0,
                    stuck_value=1, duration=5.0,
                ),
            )
        )
        with pytest.raises(NoUniqueWinnerError, match="no watchdog is attached"):
            self._run("rr", 6, plan)

    def test_protocol_anomaly_raises(self):
        with pytest.raises(NoUniqueWinnerError):
            self._run("rotating-rr", 10, TestDroppedBroadcastContrast.PLAN)

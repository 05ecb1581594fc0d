"""Tests for the line-level control-acquisition handshake.

The headline test cross-validates the handshake machine against the
abstract BusSystem: same arrivals in, identical grants and timing out.
"""

from dataclasses import replace

import pytest

from repro.baselines.central import CentralFCFS
from repro.core.round_robin import DistributedRoundRobin
from repro.engine.simulator import EventPriority, Simulator
from repro.errors import ProtocolError, SimulationError
from repro.bus.handshake import AgentState, HandshakeBus


def _bus(num_agents=4, arbiter=None, **kwargs):
    completions = []
    bus = HandshakeBus(
        arbiter or DistributedRoundRobin(num_agents),
        on_completion=lambda *record: completions.append(record),
        **kwargs,
    )
    return bus, completions


class TestLineBehaviour:
    def test_idle_bus_lines_low(self):
        bus, __ = _bus()
        assert bus.line_levels() == {"BR": False, "AP": False, "BB": False}

    def test_request_raises_br(self):
        bus, __ = _bus()
        bus.request(2)
        assert bus.line_levels()["BR"] is True
        assert bus.state[2] is AgentState.REQUESTING

    def test_ap_rises_then_bb(self):
        bus, __ = _bus()
        bus.request(2)
        bus.simulator.step()  # the kick: AP rises
        assert bus.line_levels()["AP"] is True
        assert bus.state[2] is AgentState.COMPETING
        bus.simulator.step()  # AP falls: winner pending, seizes idle bus
        assert bus.line_levels() == {"BR": False, "AP": False, "BB": True}
        assert bus.state[2] is AgentState.MASTER

    def test_loser_stays_on_br(self):
        bus, __ = _bus()
        bus.request(1)
        bus.request(3)
        bus.simulator.run(until=0.5)
        assert bus.state[3] is AgentState.MASTER
        # The loser drops back to REQUESTING when AP falls — and joins
        # the next arbitration, which starts at the winner's grant, so
        # by the end of the same instant it is competing again.
        assert bus.state[1] in (AgentState.REQUESTING, AgentState.COMPETING)
        assert bus.line_levels()["BR"] is True

    def test_tenure_end_releases_bb(self):
        bus, completions = _bus()
        bus.request(2)
        bus.simulator.run()
        assert bus.line_levels()["BB"] is False
        assert completions == [(2, 0.0, 0.5, 1.5)]

    def test_double_request_rejected(self):
        bus, __ = _bus()
        bus.request(2)
        with pytest.raises(ProtocolError):
            bus.request(2)

    def test_winner_off_the_br_line_rejected(self):
        class OffTheLine(DistributedRoundRobin):
            """Names agent 1, which is not requesting, as the winner."""

            def start_arbitration(self, now):
                return replace(super().start_arbitration(now), winner=1)

        bus, __ = _bus(arbiter=OffTheLine(4))
        bus.request(2)
        with pytest.raises(SimulationError, match="not on the BR line"):
            bus.simulator.run()


class TestHandshakeTiming:
    def test_overlapped_arbitration_back_to_back(self):
        bus, completions = _bus()
        bus.request(1)
        bus.request(2)
        bus.request(3)
        bus.simulator.run()
        grant_times = [grant for grant, __ in bus.grant_log]
        assert grant_times == pytest.approx([0.5, 1.5, 2.5])

    def test_second_arbitration_starts_at_grant(self):
        bus, __ = _bus()
        bus.request(1)
        bus.request(2)
        bus.simulator.run(until=0.6)
        # First master granted at 0.5; the next arbitration's AP must
        # already be up, overlapping the tenure.
        assert bus.line_levels()["AP"] is True

    def test_fcfs_arbiter_drives_handshake(self):
        bus, __ = _bus(arbiter=CentralFCFS(4))
        bus.request(3)
        bus.simulator.run(until=0.2)
        bus.request(4)
        bus.simulator.run()
        assert [agent for __, agent in bus.grant_log] == [3, 4]


class TestCrossValidationAgainstBusSystem:
    def test_identical_grants_and_timing(self):
        """The §4.1 abstraction check: the line-level machine reproduces
        BusSystem's behaviour event for event."""
        from repro.bus.model import BusSystem
        from repro.stats.collector import CompletionCollector
        from repro.workload.distributions import Exponential
        from repro.workload.scenarios import AgentSpec, ScenarioSpec

        num_agents = 6
        scenario = ScenarioSpec(
            name="xval",
            agents=tuple(
                AgentSpec(agent_id=i, interrequest=Exponential(2.0))
                for i in range(1, num_agents + 1)
            ),
        )
        collector = CompletionCollector(
            batches=2, batch_size=400, warmup=0, keep_records=True
        )
        system = BusSystem(
            scenario, DistributedRoundRobin(num_agents), collector, seed=33
        )
        system.run()
        reference = [
            (record.agent_id, record.issue_time, record.grant_time)
            for record in collector.records
        ]

        # Drive the handshake bus with the *same arrival instants*.
        arrivals = sorted(
            (record.issue_time, record.agent_id) for record in collector.records
        )
        completions = []
        bus = HandshakeBus(
            DistributedRoundRobin(num_agents),
            on_completion=lambda *record: completions.append(record),
        )
        for time, agent in arrivals:
            bus.simulator.post(
                time, EventPriority.REQUEST, lambda agent=agent: bus.request(agent)
            )
        bus.simulator.run()

        produced = [
            (agent, issue, grant) for agent, issue, grant, __ in completions
        ]
        assert len(produced) == len(reference)
        for ours, theirs in zip(produced, reference):
            assert ours[0] == theirs[0]
            assert ours[1] == pytest.approx(theirs[1])
            assert ours[2] == pytest.approx(theirs[2])

"""Lane-versus-event cases for fused kicks on clocked and faulted lanes.

A lane runs an arbitration pass in the dispatch round that triggers it
("fuses" the kick) when no other event shares the instant.  A clocked
lane fuses a kick that falls on a clock edge and schedules the others at
the next edge; a faulted lane fuses too, testing the fused pass for a
due line fault at the same instant.  A faulted lane also absorbs the
request expiries that fall before the release while a winner is
latched, up to its next fault timer, and swallows a dropped-out agent's
expiry there.  Each case below pins one of these paths against the
event engine, by canonical pickle of the whole result (records, event
stream and metrics).
"""

import copy
import pickle
from dataclasses import replace

import pytest

from repro.bus.timing import BusTiming
from repro.engine.batch import run_lanes
from repro.experiments.runner import SimulationSettings
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.observability.events import TelemetrySettings
from repro.session import run_cell
from repro.workload.distributions import Deterministic
from repro.workload.scenarios import AgentSpec, ScenarioSpec, equal_load

SETTINGS = SimulationSettings(
    batches=2,
    batch_size=60,
    warmup=10,
    seed=21,
    keep_records=True,
    telemetry=TelemetrySettings(events=True, metrics=True),
)


def _canonical(result):
    return pickle.dumps(pickle.loads(pickle.dumps(result)))


def _lane_and_event(cell):
    """Both engines' results for ``cell``; they must be pickle-equal."""
    scenario, protocol, settings = cell
    (lane,) = run_lanes([copy.deepcopy(cell)])
    event = run_cell(copy.deepcopy(scenario), protocol, replace(settings, engine="event"))
    assert _canonical(lane) == _canonical(event)
    return lane


@pytest.fixture
def edge_delays(monkeypatch):
    """Every delay ``BusTiming.delay_to_next_edge`` returns, in order."""
    delays = []
    real = BusTiming.delay_to_next_edge

    def recording(self, now):
        delay = real(self, now)
        delays.append(delay)
        return delay

    monkeypatch.setattr(BusTiming, "delay_to_next_edge", recording)
    return delays


def _on_edge(time, period):
    phase = time % period
    return min(phase, period - phase) < 1e-9


@pytest.mark.parametrize("protocol", ("rr", "fcfs", "fcfs-aincr"))
def test_clocked_lane_on_edges_fuses_every_kick(protocol, edge_delays):
    # Think times, settle and tenure are multiples of the 0.25 period
    # and no two requests ever coincide, so every kick falls on an edge
    # with nothing else at its instant: each is fused, never scheduled.
    scenario = ScenarioSpec(
        name="on-edge",
        agents=(
            AgentSpec(agent_id=1, interrequest=Deterministic(0.25)),
            AgentSpec(agent_id=2, interrequest=Deterministic(0.5)),
        ),
    )
    settings = replace(SETTINGS, timing=BusTiming(clock_period=0.25))
    lane = _lane_and_event((scenario, protocol, settings))
    issues = [record.issue_time for record in lane.collector.records]
    assert len(set(issues)) == len(issues)
    assert all(_on_edge(time, 0.25) for time in issues)
    assert edge_delays and not any(edge_delays)


@pytest.mark.parametrize("protocol", ("rr", "fcfs", "fcfs-aincr", "fixed"))
@pytest.mark.parametrize("load", (0.5, 3.0))
def test_clocked_lane_off_edges_waits_for_the_edge(protocol, load, edge_delays):
    # A 0.3 period divides neither the tenure nor the settle time, so
    # releases and settles fall off the edges: the kicks there wait for
    # the next edge, while the ones on an edge are fused.
    settings = replace(SETTINGS, timing=BusTiming(clock_period=0.3))
    _lane_and_event((equal_load(6, load), protocol, settings))
    assert any(edge_delays) and not all(edge_delays)


def _latched_instants(records, after):
    """Instants after ``after`` at which a winner is latched: a quarter
    tenure before a release that hands the bus straight to the next
    master (its arbitration settled during the tenure)."""
    handovers = {record.grant_time for record in records}
    return [
        record.completion_time - 0.25
        for record in records
        if record.completion_time in handovers and record.grant_time > after
    ]


@pytest.mark.parametrize("protocol", ("rr", "fcfs", "fcfs-glitchable"))
def test_faulted_lane_drops_out_and_rejoins_while_a_winner_is_latched(protocol):
    # A saturated bus latches the next winner in the second half of
    # nearly every tenure.  Agent 2's dropout window opens at such an
    # instant and closes at another; its think timer expires while it is
    # out, and the lane swallows that expiry in the faulted absorb.
    scenario = equal_load(4, 3.0)
    clean = run_cell(scenario, protocol, replace(SETTINGS, engine="event"))
    start = _latched_instants(clean.collector.records, after=20.0)[0]

    def plan(duration):
        window = FaultEvent(start, FaultKind.AGENT_DROPOUT, agent_id=2, duration=duration)
        return FaultPlan(events=(window,))

    # Nothing before the rejoin depends on the window's length, so the
    # run with a window past the end shows where a winner is latched.
    open_ended = run_cell(scenario, protocol, replace(SETTINGS, engine="event",
                                                      fault_plan=plan(1e6)))
    records = open_ended.collector.records
    end = _latched_instants(records, after=start + 10.0)[0]
    out = [r for r in records if start < r.issue_time < end and r.agent_id == 2]
    assert not out  # agent 2 issued nothing while out
    lane = _lane_and_event((scenario, protocol, replace(SETTINGS, fault_plan=plan(end - start))))
    back = [r for r in lane.collector.records if r.issue_time > end and r.agent_id == 2]
    assert back  # and the rejoin restarted it

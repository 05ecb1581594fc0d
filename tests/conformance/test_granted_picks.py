"""Granted picks: an FCFS lane pops the winner of every key-free pass.

A lane grants the winner of each key-free pass before its next pass, so
its FCFS kernel takes the winner's entry out of the arrival heap and
files nothing again (``_FcfsKernel.arbitrate_granted``, whose common
case a lane runs inline).  Two picks pop nothing: an
urgent pick and the scan a class-blind pass falls back to when its
oldest request has wrapped.  Their winner's entry goes stale at the
grant, and a scan refiles the heap once N stale entries have piled up.

The suite covers the cases that leave the plain path:

- a normal request held back by urgent traffic until its counter wraps
  (``PriorityCounterPolicy.OVERFLOW``), on ``fcfs`` and ``fcfs-aincr``
  lanes: the pass scans, and every lane equals the event engine;
- a counter upset that lands on a latched winner, after its pass and
  before its grant, on ``fcfs-glitchable`` lanes with line faults too;
- the kernel against the event arbiter through any sequence of
  requests, granted picks, upsets of the winner and grants, holding at
  most ``2N`` heap entries throughout, plus one per upset.
"""

import copy
import pickle
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import example, given, settings as hyp_settings, strategies as st

import repro.engine.cell as cell_module
from repro.engine.batch import _FAULT_FREE_KERNELS, _KERNELS, _FcfsKernel, run_lanes
from repro.experiments.runner import SimulationSettings, make_arbiter, run_simulation
from repro.faults.injector import FaultInjector
from repro.faults.plan import BUS_LEVEL_FAULTS, FaultEvent, FaultKind, FaultPlan
from repro.observability.events import TelemetrySettings
from repro.protocols.registry import get_spec
from repro.workload.arrivals import two_class_priority_load
from repro.workload.scenarios import equal_load

SETTINGS = SimulationSettings(batches=2, batch_size=40, warmup=10, keep_records=True)

FCFS_PROTOCOLS = ("fcfs", "fcfs-aincr", "fcfs-glitchable")


def _canonical(result):
    return pickle.dumps(pickle.loads(pickle.dumps(result)))


def _event(cell):
    scenario, protocol, settings = cell
    return run_simulation(copy.deepcopy(scenario), protocol, replace(settings, engine="event"))


@contextmanager
def _wrapped_scans():
    """Collect the pending masks of the class-blind scans lanes run: the
    passes whose oldest request had wrapped."""
    scans = []
    real = _FcfsKernel._scan

    def counting(self, mask):
        if not self.urgent & self.pending:
            scans.append(mask)
        return real(self, mask)

    with mock.patch.object(_FcfsKernel, "_scan", counting):
        yield scans


# -- classed lanes whose normal requests wrap -----------------------------------


def _held_back(protocol, agents, fraction, seed):
    """A saturated two-class cell: every request urgent with ``fraction``."""
    scenario = two_class_priority_load(agents, 0.95 * agents, urgent_fraction=fraction)
    return scenario, protocol, replace(SETTINGS, seed=seed)


@pytest.mark.parametrize("protocol", ["fcfs", "fcfs-aincr"])
@pytest.mark.parametrize("agents,fraction,seed", [(5, 0.7, 0), (6, 0.5, 1), (6, 0.9, 2)])
def test_a_wrapped_normal_request_sends_a_classed_lane_to_the_scan(
    protocol, agents, fraction, seed
):
    cell = _held_back(protocol, agents, fraction, seed)
    with _wrapped_scans() as scans:
        (lane,) = run_lanes([copy.deepcopy(cell)])
    assert scans, "no normal request wrapped"
    assert _canonical(lane) == _canonical(_event(cell))


@hyp_settings(max_examples=25, deadline=None)
@given(
    protocol=st.sampled_from(["fcfs", "fcfs-aincr"]),
    agents=st.integers(min_value=2, max_value=6),
    fraction=st.floats(min_value=0.5, max_value=0.95),
    seed=st.integers(min_value=0, max_value=2**16),
    events=st.booleans(),
)
def test_classed_fcfs_lanes_under_heavy_urgent_traffic_equal_the_event_engine(
    protocol, agents, fraction, seed, events
):
    scenario, protocol, settings = _held_back(protocol, agents, fraction, seed)
    if events:
        settings = replace(settings, telemetry=TelemetrySettings(events=True))
    cell = (scenario, protocol, settings)
    (lane,) = run_lanes([copy.deepcopy(cell)])
    assert _canonical(lane) == _canonical(_event(cell))


# -- a counter upset on a latched winner ----------------------------------------


@contextmanager
def _injectors():
    """Every FaultInjector either engine builds, in construction order."""
    made = []

    class Recording(FaultInjector):
        def __init__(self, plan):
            super().__init__(plan)
            made.append(self)

    with mock.patch.object(cell_module, "FaultInjector", Recording):
        yield made


def _latched(result):
    """``(settled, granted, winner)`` for each pass of ``result`` whose
    winner waited for the bus after its lines settled: latched from
    ``settled`` until its grant at ``granted``."""
    grants = defaultdict(list)
    for record in result.collector.records:
        grants[record.agent_id].append(record.grant_time)
    windows = []
    for event in result.events:
        if event.winner is None:
            continue
        settled = event.time + event.settle_time
        later = [grant for grant in grants[event.winner] if grant >= event.time]
        if later and min(later) > settled:
            windows.append((settled, min(later), event.winner))
    return windows


def _upset_cell(agents, load, rate, seed):
    """A ``fcfs-glitchable`` cell whose plan holds every bus-level kind
    and counter upsets, with its events recorded."""
    plan = FaultPlan.generate(
        seed=seed,
        rate=rate,
        horizon=150.0,
        kinds=tuple(sorted(BUS_LEVEL_FAULTS, key=lambda kind: kind.value))
        + (FaultKind.COUNTER_UPSET,),
        num_agents=agents,
        start=5.0,
        line_span=get_spec("fcfs-glitchable").number_width(agents),
    )
    settings = replace(
        SETTINGS, seed=seed, fault_plan=plan, telemetry=TelemetrySettings(events=True)
    )
    return equal_load(agents, load), "fcfs-glitchable", settings


@hyp_settings(max_examples=30, deadline=None)
@given(
    agents=st.integers(min_value=2, max_value=10),
    load=st.sampled_from([2.0, 7.5]),
    rate=st.sampled_from([0.0, 0.05, 0.2]),
    seed=st.integers(min_value=0, max_value=2**16),
    data=st.data(),
)
def test_an_upset_on_a_latched_winner_changes_nothing_on_either_engine(
    agents, load, rate, seed, data
):
    scenario, protocol, settings = _upset_cell(agents, min(load, 0.95 * agents), rate, seed)
    before = _event((scenario, protocol, settings))
    windows = _latched(before)
    assert windows
    picks = data.draw(
        st.lists(st.sampled_from(windows), min_size=1, max_size=4, unique=True), label="picks"
    )
    upsets = tuple(
        FaultEvent(
            time=(settled + granted) / 2,
            kind=FaultKind.COUNTER_UPSET,
            agent_id=winner,
            value=data.draw(st.integers(min_value=0, max_value=63), label="value"),
        )
        for settled, granted, winner in picks
    )
    plan = settings.fault_plan
    cell = (scenario, protocol, replace(settings, fault_plan=FaultPlan(plan.events + upsets)))
    with _injectors() as made:
        (lane,) = run_lanes([copy.deepcopy(cell)])
        event = _event(cell)
    assert _canonical(lane) == _canonical(event)
    # The upsets hit pending requests, each of which is granted next:
    # the run is the run without them.
    assert lane.collector.records == before.collector.records
    lane_injector, event_injector = made
    baseline = sum(1 for fault in plan.events if fault.kind is FaultKind.COUNTER_UPSET)
    hits = lane_injector.applied.get(FaultKind.COUNTER_UPSET.value, 0)
    assert hits == event_injector.applied.get(FaultKind.COUNTER_UPSET.value, 0)
    assert hits >= len(upsets) and hits <= baseline + len(upsets)


# -- the kernel against the event arbiter ---------------------------------------


_request = st.tuples(
    st.just("request"),
    st.integers(min_value=1, max_value=12),
    st.booleans(),
    st.sampled_from([0.0, 0.5]),
)

# A granted pass; on fcfs-glitchable the winner's counter may be upset
# to the value given before the grant.
_pass = st.tuples(st.just("pass"), st.none() | st.integers(min_value=0, max_value=63))


def _starved(agents, rounds):
    """Agent 1's normal request held back while agents 2..N turn urgent
    requests over for ``rounds`` passes, each urgent win leaving a
    stale entry.  The last N-1 winners come back as normal requests, so
    once the urgent ones are served, agent 1's wrapped counter meets
    younger normal ones."""
    steps = [("request", 1, False, 0.0)]
    steps += [("request", agent, True, 0.0) for agent in range(2, agents + 1)]
    for turn in range(rounds):
        urgent = turn < rounds - (agents - 1)
        steps += [("pass", None), ("request", 2 + turn % (agents - 1), urgent, 0.5)]
    return steps + [("pass", 3)] * (2 * agents)


def _drive(protocol, faulted, agents, steps):
    """Run ``steps`` on the kernel a fault-free classed lane, or a
    faulted lane, picks its clean passes with (``arbitrate_granted``),
    and on the event arbiter; return the
    winners of the class-blind passes whose oldest request had wrapped,
    with that oldest request's agent."""
    kernels = _KERNELS if faulted else _FAULT_FREE_KERNELS
    kernel = kernels[protocol](agents)
    pick = kernel.arbitrate_granted
    arbiter = make_arbiter(protocol, agents)
    upsets = faulted and protocol == "fcfs-glitchable"
    # Granted picks, grants and requests keep at most 2N entries; an
    # upset files its request again, which may hold one more until a
    # scan refiles the heap.
    bound = 2 * agents
    wrapped = []
    now = 0.0
    for step in steps:
        if step[0] == "request":
            _, agent, urgent, gap = step
            agent = 1 + (agent - 1) % agents
            now += gap
            if not kernel.pending >> agent & 1:
                kernel.request(agent, now, urgent)
                arbiter.request(agent, now, priority=urgent)
        elif kernel.pending:
            counters = kernel.counter
            oldest = max(_ids(kernel.pending), key=lambda agent: (counters[agent], agent))
            blind = not kernel.urgent & kernel.pending
            winner, rounds, competitors = pick()
            outcome = arbiter.start_arbitration(now)
            assert (winner, rounds, competitors) == (
                outcome.winner,
                outcome.rounds,
                sum(1 << agent for agent in outcome.competitors),
            )
            if blind and counters[oldest] >= kernel.modulus:
                wrapped.append((winner, oldest))
            if upsets and step[1] is not None:
                # The latched winner still holds its request.
                assert kernel.glitch_counter(winner, step[1])
                arbiter.glitch_counter(winner, step[1])
                bound += 1
            kernel.grant(winner)
            arbiter.grant(winner, now)
        assert len(kernel.arrivals) <= bound
        waiting = arbiter.waiting_agents()
        assert kernel.pending == sum(1 << agent for agent in waiting)
        for agent in waiting:
            assert kernel.counter[agent] % kernel.modulus == arbiter.pending_requests_counter(
                agent
            )
    return wrapped


def _ids(mask):
    return [agent for agent in range(mask.bit_length()) if mask >> agent & 1]


@hyp_settings(max_examples=300, deadline=None)
# Long starvations whose wrapped request loses a scan to a younger one.
@example(protocol="fcfs", faulted=False, agents=3, steps=_starved(3, 41))
@example(protocol="fcfs-aincr", faulted=True, agents=3, steps=_starved(3, 42))
@example(protocol="fcfs-glitchable", faulted=True, agents=3, steps=_starved(3, 41))
@given(
    protocol=st.sampled_from(FCFS_PROTOCOLS),
    faulted=st.booleans(),
    agents=st.integers(min_value=1, max_value=12),
    steps=st.lists(st.one_of(_request, _pass), max_size=150),
)
def test_granted_picks_equal_the_event_arbiter_and_keep_the_heap_bounded(
    protocol, faulted, agents, steps
):
    _drive(protocol, faulted, agents, steps)


@pytest.mark.parametrize("faulted", [False, True])
@pytest.mark.parametrize("protocol", FCFS_PROTOCOLS)
def test_a_wrapped_oldest_request_that_loses_the_scan_stays_filed(protocol, faulted):
    # Over a range of starvation lengths, agent 1's wrapped counter ends
    # on every residue, so some scans pick a younger request; agent 1
    # must still be found, and served, afterwards.
    lost = 0
    for rounds in range(8, 40):
        wrapped = _drive(protocol, faulted, 3, _starved(3, rounds))
        assert wrapped
        lost += sum(winner != oldest for winner, oldest in wrapped)
    assert lost

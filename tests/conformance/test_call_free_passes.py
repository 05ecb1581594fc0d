"""Call-free passes: classed, faulted and clocked lanes work inline.

A lane picks the winner of every key-free pass inside
``_Replication.run``, over the pending and urgent masks, round robin's
last winner and FCFS's clock that it holds: round robin with the
urgent bit (``arbitrate_classed``), FCFS's granted pick (its urgent and
wrapped scans stay kernel calls), fixed priority with the class bit,
and ``rr-faulty-register`` as implementation 1 while every agent's view
is the last winner.  A classed agent's exponential think times are
drawn inline, a faulted lane tests for a due line fault with one
comparison against a time it holds, a watchdog hears of a clean grant
only while an episode is open, and a clocked lane finds the next clock
edge inline.  The kernel, ``FaultInjector``, ``BusWatchdog`` and
``BusTiming`` methods are the references.

Every lane must equal the event engine by canonical pickle of its whole
result, and a lane streaming its arbitration events to JSONL must write
the event engine's file byte for byte.  The lane's line-fault test is
held to ``FaultInjector.line_fault_due`` at every pass.
"""

import copy
import os
import pickle
import random
import tempfile
from contextlib import contextmanager
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

import repro.engine.cell as cell_module
from repro.bus.timing import BusTiming
from repro.bus.watchdog import WatchdogPolicy
from repro.core.base import ArbitrationOutcome
from repro.engine.batch import _FcfsKernel, _ThinkAndClass, batch_capable, run_lanes
from repro.experiments.runner import SimulationSettings
from repro.faults.injector import FaultInjector
from repro.faults.plan import BUS_LEVEL_FAULTS, FaultEvent, FaultKind, FaultPlan
from repro.observability.events import TelemetrySettings
from repro.protocols.registry import get_spec
from repro.session import run_cell
from repro.workload.distributions import Exponential, from_mean_cv
from repro.workload.scenarios import AgentSpec, ScenarioSpec, mean_interrequest_for_load

#: The protocols of the classed cells.
CLASSED_PROTOCOLS = ("rr", "rr-impl2", "rr-impl3", "fcfs", "fcfs-aincr", "fixed")

#: Each fault-observable protocol and the arbiter-level kind it models.
ARBITER_FAULT = {
    "rr-faulty-register": FaultKind.DROPPED_BROADCAST,
    "fcfs-glitchable": FaultKind.COUNTER_UPSET,
}

#: Every lane protocol.
LANE_PROTOCOLS = CLASSED_PROTOCOLS + tuple(sorted(ARBITER_FAULT))

SETTINGS = SimulationSettings(batches=2, batch_size=40, warmup=10)

_BUS_KINDS = tuple(sorted(BUS_LEVEL_FAULTS, key=lambda kind: kind.value))


def _canonical(result):
    return pickle.dumps(pickle.loads(pickle.dumps(result)))


def _scenario(agents, loads, fractions, cv=1.0):
    """``agents`` agents, agent i offering ``loads[i % len(loads)]`` and
    urgent with probability ``fractions[i % len(fractions)]``."""
    return ScenarioSpec(
        name="classed-mix",
        agents=tuple(
            AgentSpec(
                agent_id=agent,
                interrequest=from_mean_cv(
                    mean_interrequest_for_load(loads[(agent - 1) % len(loads)]), cv
                ),
                priority_fraction=fractions[(agent - 1) % len(fractions)],
            )
            for agent in range(1, agents + 1)
        ),
    )


def _plan(protocol, agents, seed, rate):
    """Line glitches, stuck lines and dropouts, plus the protocol's
    arbiter-level kind, from the first completions on."""
    kinds = _BUS_KINDS + ((ARBITER_FAULT[protocol],) if protocol in ARBITER_FAULT else ())
    return FaultPlan.generate(
        seed=seed,
        rate=rate,
        horizon=150.0,
        kinds=kinds,
        num_agents=agents,
        start=5.0,
        line_span=get_spec(protocol).number_width(agents),
    )


def _event(cell):
    scenario, protocol, settings = cell
    return run_cell(copy.deepcopy(scenario), protocol, replace(settings, engine="event"))


def _read(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _assert_lane_equals_event(cell, jsonl):
    """Run ``cell`` as a lane; it must equal the event engine, and with
    ``jsonl`` write the event engine's event stream."""
    assert batch_capable(*cell)[0]
    scenario, protocol, settings = cell
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "events.jsonl")
        if jsonl:
            settings = replace(settings, telemetry=TelemetrySettings(jsonl_path=path))
        cell = (scenario, protocol, settings)
        (lane,) = run_lanes([copy.deepcopy(cell)])
        streamed = _read(path) if jsonl else None
        assert _canonical(lane) == _canonical(_event(cell))
        if jsonl:
            assert streamed and streamed == _read(path)
    return lane


_loads = st.lists(st.sampled_from([0.1, 0.3, 0.6, 0.9, 0.95]), min_size=1, max_size=3)
_fractions = st.lists(
    st.sampled_from([0.0, 0.2, 0.5, 0.9, 1.0]), min_size=1, max_size=3
).filter(any)


# -- classed lanes --------------------------------------------------------------


@hyp_settings(max_examples=100, deadline=None)
@given(
    protocol=st.sampled_from(CLASSED_PROTOCOLS),
    agents=st.integers(min_value=2, max_value=12),
    loads=_loads,
    fractions=_fractions,
    cv=st.sampled_from([0.0, 1.0, 2.0]),
    period=st.sampled_from([0.0, 0.0, 0.25]),
    seed=st.integers(min_value=0, max_value=2**16),
    jsonl=st.booleans(),
)
def test_a_classed_lane_equals_the_event_engine(
    protocol, agents, loads, fractions, cv, period, seed, jsonl
):
    settings = replace(SETTINGS, seed=seed, timing=BusTiming(clock_period=period))
    _assert_lane_equals_event((_scenario(agents, loads, fractions, cv), protocol, settings), jsonl)


@contextmanager
def _scans():
    """Collect ``(urgent, mask)`` for every FCFS scan a lane runs: an
    urgent pick (``urgent`` set) or a wrapped class-blind one."""
    scans = []
    real = _FcfsKernel._scan

    def recording(self, mask):
        scans.append((bool(self.urgent & self.pending), mask))
        return real(self, mask)

    with mock.patch.object(_FcfsKernel, "_scan", recording):
        yield scans


@pytest.mark.parametrize("protocol", ("fcfs", "fcfs-aincr"))
def test_classed_fcfs_lanes_run_urgent_and_wrapped_scans(protocol):
    # Saturated, mostly urgent traffic: urgent picks scan, and a normal
    # request held back until its counter wraps sends a class-blind
    # pass to the scan.  The lane hands its masks and clock to the
    # kernel for both.
    scenario = _scenario(6, (0.95,), (0.7, 0.9, 1.0))
    with _scans() as scans:
        for seed in range(3):
            _assert_lane_equals_event(
                (scenario, protocol, replace(SETTINGS, seed=seed)), jsonl=seed == 0
            )
    assert {urgent for urgent, __ in scans} == {True, False}


# -- faulted lanes --------------------------------------------------------------


@hyp_settings(max_examples=100, deadline=None)
@given(
    protocol=st.sampled_from(LANE_PROTOCOLS),
    agents=st.integers(min_value=2, max_value=12),
    loads=_loads,
    fractions=st.sampled_from([(0.0,), (0.0,), (0.3,), (0.0, 1.0)]),
    rate=st.sampled_from([0.1, 0.3, 0.6]),
    period=st.sampled_from([0.0, 0.0, 0.25]),
    seed=st.integers(min_value=0, max_value=2**16),
    jsonl=st.booleans(),
)
def test_a_faulted_lane_equals_the_event_engine(
    protocol, agents, loads, fractions, rate, period, seed, jsonl
):
    # Every kernel under line faults and dropouts, the fault-observable
    # ones under their own kind too, unclassed and classed.
    settings = replace(
        SETTINGS,
        seed=seed,
        timing=BusTiming(clock_period=period),
        fault_plan=_plan(protocol, agents, seed, rate),
        watchdog=WatchdogPolicy(),
    )
    _assert_lane_equals_event((_scenario(agents, loads, fractions), protocol, settings), jsonl)


@pytest.fixture
def injectors(monkeypatch):
    """Every FaultInjector either engine builds, in construction order."""
    made = []

    class Recording(FaultInjector):
        def __init__(self, plan):
            super().__init__(plan)
            made.append(self)

    monkeypatch.setattr(cell_module, "FaultInjector", Recording)
    return made


@pytest.mark.parametrize("protocol", sorted(ARBITER_FAULT))
def test_dense_faults_on_the_fault_observable_lanes_equal_the_event_engine(
    injectors, protocol
):
    # Dense plans: glitches, stuck windows, dropouts and the arbiter-level
    # kind all take effect, anomalies open watchdog episodes and clean
    # grants close them, on lanes that equal the event engine.
    applied = {}
    recovered = 0
    for agents, seed in ((3, 11), (8, 12), (12, 13)):
        settings = replace(
            SETTINGS,
            seed=seed,
            fault_plan=_plan(protocol, agents, seed, rate=0.6),
            watchdog=WatchdogPolicy(),
        )
        lane = _assert_lane_equals_event(
            (_scenario(agents, (0.6,), (0.0,)), protocol, settings), jsonl=seed == 12
        )
        recovered += len(lane.collector.recovery_latencies)
        for injector in injectors:
            for kind, count in injector.applied.items():
                applied[kind] = applied.get(kind, 0) + count
    assert recovered
    expected = {kind.value for kind in _BUS_KINDS} | {ARBITER_FAULT[protocol].value}
    assert set(applied) == expected


def _keyed_times(monkeypatch):
    """Record the time of every pass that perturbs its key map."""
    times = []
    real = FaultInjector.perturb

    def recording(self, outcome, now):
        times.append(now)
        return real(self, outcome, now)

    monkeypatch.setattr(FaultInjector, "perturb", recording)
    return times


@pytest.mark.parametrize("seed", (3, 17, 4242))
@pytest.mark.parametrize("protocol", LANE_PROTOCOLS)
def test_the_lane_keys_a_pass_exactly_when_a_line_fault_is_due(monkeypatch, protocol, seed):
    # Replays the lane's passes on a fresh injector: a pass builds and
    # perturbs the key map exactly when line_fault_due holds at its
    # instant or a watchdog episode is open, and the replay consumes the
    # glitches the lane's perturb consumed.
    agents = 4 + seed % 5
    plan = _plan(protocol, agents, seed, rate=0.4)
    settings = replace(
        SETTINGS,
        seed=seed,
        fault_plan=plan,
        watchdog=WatchdogPolicy(),
        telemetry=TelemetrySettings(events=True),
    )
    recorded = _keyed_times(monkeypatch)
    (lane,) = run_lanes([(_scenario(agents, (0.6,), (0.0,)), protocol, settings)])
    monkeypatch.undo()
    keyed = list(recorded)
    reference = FaultInjector(plan)
    probe = ArbitrationOutcome(winner=1, rounds=1, competitors=frozenset({1}), keys={1: 1})
    taken = 0
    for event in lane.events:
        due = reference.line_fault_due(event.time) or event.watchdog_attempt > 0
        hit = taken < len(keyed) and keyed[taken] == event.time
        assert hit == due, event
        if hit:
            taken += 1
            reference.perturb(probe, event.time)
    assert taken == len(keyed) > 0
    assert len(keyed) < len(lane.events)


_window = st.tuples(
    st.floats(min_value=0.0, max_value=20.0), st.floats(min_value=0.1, max_value=5.0)
)


@hyp_settings(max_examples=200, deadline=None)
@given(
    glitches=st.lists(st.floats(min_value=0.0, max_value=20.0), max_size=6),
    windows=st.lists(_window, max_size=4),
    steps=st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=3.0), st.booleans()), max_size=30
    ),
)
def test_next_line_fault_is_due_exactly_when_line_fault_due_holds(glitches, windows, steps):
    # At every instant, next_line_fault(now) <= now iff line_fault_due;
    # and a value taken earlier stays a lower bound on it after time
    # passes and perturb consumes glitches.
    events = [FaultEvent(time, FaultKind.LINE_GLITCH, agent_id=1, line=0) for time in glitches]
    events += [
        FaultEvent(time, FaultKind.STUCK_LINE, line=0, duration=duration)
        for time, duration in windows
    ]
    injector = FaultInjector(FaultPlan(tuple(events)))
    probe = ArbitrationOutcome(winner=1, rounds=1, competitors=frozenset({1}), keys={1: 1})
    now = 0.0
    held = injector.next_line_fault(now)
    for gap, perturb in steps:
        now += gap
        due = injector.line_fault_due(now)
        upcoming = injector.next_line_fault(now)
        assert due == (upcoming <= now)
        assert held <= upcoming
        if perturb:
            injector.perturb(probe, now)
        held = injector.next_line_fault(now)


# -- clocked lanes --------------------------------------------------------------


@hyp_settings(max_examples=100, deadline=None)
@given(
    protocol=st.sampled_from(LANE_PROTOCOLS),
    agents=st.integers(min_value=2, max_value=12),
    loads=_loads,
    fractions=st.sampled_from([(0.0,), (0.0,), (0.3,)]),
    timing=st.sampled_from(
        [
            BusTiming(clock_period=0.25),
            BusTiming(clock_period=0.1),
            BusTiming(clock_period=0.3, arbitration_time=0.3),
            BusTiming(clock_period=0.7),
            BusTiming(clock_period=1.0 / 3.0, transaction_time=1.0, arbitration_time=1.0 / 3.0),
        ]
    ),
    seed=st.integers(min_value=0, max_value=2**16),
    jsonl=st.booleans(),
)
def test_a_clocked_lane_equals_the_event_engine(
    protocol, agents, loads, fractions, timing, seed, jsonl
):
    # Periods that divide the tenure and settle times and periods that do
    # not: kicks and grants fall on edges, off them, and on them only
    # within the tolerance of accumulated rounding.
    settings = replace(SETTINGS, seed=seed, timing=timing)
    _assert_lane_equals_event((_scenario(agents, loads, fractions), protocol, settings), jsonl)


@pytest.mark.parametrize("protocol", ("rr", "fcfs"))
def test_a_clocked_lane_passes_on_edges_reached_within_the_tolerance(protocol):
    # A period of 0.1 is not a binary fraction: passes land on edges
    # whose phase is a rounding residue, which only the tolerance calls
    # an edge, and the lane still equals the event engine.
    period = 0.1
    settings = replace(
        SETTINGS,
        seed=5,
        timing=BusTiming(clock_period=period),
        telemetry=TelemetrySettings(events=True),
    )
    lane = _assert_lane_equals_event((_scenario(6, (0.9,), (0.0,)), protocol, settings), False)
    residues = []
    for event in lane.events:
        phase = event.time % period
        residue = min(phase, period - phase)
        assert residue <= (1e-9 * event.time if event.time > 1.0 else 1e-9)
        residues.append(residue)
    assert any(residues) and not all(residues)


# -- classed think draws --------------------------------------------------------


@pytest.mark.parametrize("mean", (0.3, 1.0, 7.5))
def test_classed_exponential_think_draws_equal_the_sample_loop(mean):
    # The tape of a classed agent draws its exponential think times
    # inline: the same variates, and the same generator state after, as
    # Exponential.sample between class draws.
    dist = Exponential(mean)
    for seed in range(5):
        rng, twin = random.Random(seed), random.Random(seed)
        expected = []
        for _ in range(32):
            expected.append(dist.sample(twin))
            expected.append(twin.random())
        assert _ThinkAndClass(dist).sample_batch(rng, 64) == expected
        assert rng.getstate() == twin.getstate()

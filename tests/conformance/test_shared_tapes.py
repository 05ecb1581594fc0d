"""Shared think-time tapes: a lane pack seeds and draws each stream once.

The lanes of one ``run_lanes`` call that share a ``(seed, agent id,
distribution spec key)`` read one tape of that stream, extended only as
far as a lane asks (``repro.engine.batch``).  A tape hands every lane
the variates its own stream would draw, so a cell must give the same
result whatever company it keeps: the differential property below runs
mixed packs and compares every cell with the same cell run alone and on
the event engine.  A classed agent keeps a generator of its own, and a
stateful distribution (two agents sharing one MMPP, a cycling trace)
gets a tape private to its lane, so those sit in the packs too.

The count and release tests pin the point of the change: a pack of
the six lane protocols at one seed seeds each agent stream once and
draws each about as far as its most demanding lane, and a tape is gone
after the last lane that reads it.
"""

import copy
import pickle
import random
import weakref
from collections import defaultdict
from dataclasses import replace

import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

import repro.engine.batch as batch_module
from repro.bus.agent import _THINK_BLOCK
from repro.engine.batch import batch_capable, run_lanes
from repro.engine.rng import RandomStreams
from repro.experiments.runner import SimulationSettings
from repro.faults.plan import FaultKind, FaultPlan
from repro.session import run_cell
from repro.workload.arrivals import MarkovModulatedPoisson
from repro.workload.distributions import Distribution, Exponential
from repro.workload.scenarios import AgentSpec, ScenarioSpec, equal_load
from repro.workload.traces import TraceDistribution, synthesize_program_trace

#: The protocols with a lane kernel that run without a fault plan.
LANE_PROTOCOLS = ("rr", "rr-impl2", "rr-impl3", "fcfs", "fcfs-aincr", "fixed")

SETTINGS = SimulationSettings(batches=2, batch_size=40, warmup=10)


def _classed(scenario):
    """``scenario`` with its first agent urgent now and then."""
    first, *rest = scenario.agents
    return ScenarioSpec(
        f"{scenario.name}-classed", (replace(first, priority_fraction=0.3), *rest)
    )


def _shared_mmpp(scenario):
    """``scenario`` with its first two agents drawing from one MMPP."""
    shared = MarkovModulatedPoisson(rates=(0.4, 0.05), switch_rates=(0.05, 0.1))
    one, two, *rest = scenario.agents
    return ScenarioSpec(
        f"{scenario.name}-shared-mmpp",
        (replace(one, interrequest=shared), replace(two, interrequest=shared), *rest),
    )


def _cycling_trace(scenario):
    """``scenario`` with its last agent replaying a short cycling trace."""
    *rest, last = scenario.agents
    trace = TraceDistribution(synthesize_program_trace(30, seed=last.agent_id), offset=2)
    return ScenarioSpec(
        f"{scenario.name}-trace", (*rest, replace(last, interrequest=trace))
    )


def _open_loop(scenario):
    """``scenario``'s agents, open loop with one request outstanding.

    The think times are the closed-loop cell's, so the two cells read
    the same tapes."""
    return ScenarioSpec(
        f"{scenario.name}-open",
        tuple(replace(spec, open_loop=True, max_outstanding=1) for spec in scenario.agents),
    )


def _dropouts(settings, agents):
    """``settings`` with agents dropping out and rejoining."""
    plan = FaultPlan.generate(
        seed=settings.seed,
        rate=0.1,
        horizon=150.0,
        kinds=(FaultKind.AGENT_DROPOUT,),
        num_agents=agents,
        start=5.0,
    )
    return replace(settings, fault_plan=plan)


@st.composite
def _packs(draw):
    """A mixed lane pack around one seed's paper cells."""
    seed = draw(st.integers(min_value=0, max_value=2**16))
    settings = replace(SETTINGS, seed=seed)
    sizes = draw(st.lists(st.integers(min_value=2, max_value=12), min_size=1, max_size=3))
    loads = draw(st.lists(st.sampled_from([0.5, 2.0, 7.5]), min_size=1, max_size=3))
    protocols = draw(
        st.lists(st.sampled_from(LANE_PROTOCOLS), min_size=2, max_size=6, unique=True)
    )
    cells = [
        (equal_load(agents, min(load, 0.95 * agents)), protocol, settings)
        for agents in sizes
        for load in loads
        for protocol in protocols
    ]
    base = cells[0][0]
    variants = (_classed, _shared_mmpp, _cycling_trace, _open_loop)
    cells += [
        (variant(base), protocol, settings)
        for variant in variants
        for protocol in (protocols[0], protocols[-1])
    ]
    cells.append((base, "rr", _dropouts(settings, sizes[0])))
    # Another seed's cell of the same shape shares no tape.
    cells.append((base, protocols[-1], replace(settings, seed=seed + 1)))
    order = draw(st.permutations(range(len(cells))))
    return [cells[index] for index in order]


def _pickles(results):
    return [pickle.dumps(result) for result in results]


def _event(cell):
    scenario, protocol, settings = cell
    return run_cell(copy.deepcopy(scenario), protocol, replace(settings, engine="event"))


@hyp_settings(max_examples=40, deadline=None)
@given(pack=_packs(), shuffle=st.randoms(use_true_random=False))
def test_a_packed_cell_equals_the_cell_alone_and_on_the_event_engine(pack, shuffle):
    for scenario, protocol, settings in pack:
        capable, reason = batch_capable(scenario, protocol, settings)
        assert capable, reason
    packed = _pickles(run_lanes(pack))
    for cell, got in zip(pack, packed):
        assert got == _pickles(run_lanes([cell]))[0], f"{cell[1]} {cell[0].name} alone"
        assert got == pickle.dumps(_event(cell)), f"{cell[1]} {cell[0].name} on events"
    order = list(range(len(pack)))
    shuffle.shuffle(order)
    shuffled = _pickles(run_lanes([pack[index] for index in order]))
    assert [packed[index] for index in order] == shuffled


class _Counting(Distribution):
    """An exponential that counts the variates drawn from it."""

    def __init__(self, mean):
        self.inner = Exponential(mean)
        self.draws = 0

    @property
    def mean(self):
        return self.inner.mean

    @property
    def cv(self):
        return self.inner.cv

    def sample(self, rng):
        self.draws += 1
        return self.inner.sample(rng)

    def sample_batch(self, rng, count):
        self.draws += count
        return self.inner.sample_batch(rng, count)

    def survival(self, x):
        return self.inner.survival(x)


def _counted(agents, load):
    """``equal_load(agents, load)`` with a counter per agent."""
    mean = equal_load(agents, load).agents[0].interrequest.mean
    return ScenarioSpec(
        "counted", tuple(AgentSpec(i, _Counting(mean)) for i in range(1, agents + 1))
    )


@pytest.fixture
def seeded(monkeypatch):
    """Counts of agent streams seeded, by agent id."""
    counts = defaultdict(int)
    agent_stream = RandomStreams.agent_stream

    def counting(self, agent_id):
        counts[agent_id] += 1
        return agent_stream(self, agent_id)

    monkeypatch.setattr(RandomStreams, "agent_stream", counting)
    return counts


def test_a_pack_seeds_each_stream_once_and_draws_what_its_hungriest_lane_uses(seeded):
    agents = 64
    settings = SimulationSettings(batches=2, batch_size=500, warmup=50, seed=3)
    alone = {}
    for protocol in LANE_PROTOCOLS:
        scenario = _counted(agents, 2.0)
        run_lanes([(scenario, protocol, settings)])
        alone[protocol] = [spec.interrequest.draws for spec in scenario.agents]
    assert set(seeded.values()) == {len(LANE_PROTOCOLS)}
    seeded.clear()
    scenario = _counted(agents, 2.0)
    packed = run_lanes([(scenario, protocol, settings) for protocol in LANE_PROTOCOLS])
    assert all(result.collector.total_recorded == 1050 for result in packed)
    assert sorted(seeded) == list(range(1, agents + 1))
    assert set(seeded.values()) == {1}
    drawn = [spec.interrequest.draws for spec in scenario.agents]
    hungriest = [max(draws) for draws in zip(*alone.values())]
    assert drawn == hungriest
    assert sum(drawn) < sum(sum(draws) for draws in alone.values()) / 3


@pytest.fixture
def tapes(monkeypatch):
    """Weak references to every tape made, in order."""
    made = []

    class Tracked(batch_module._Tape):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(weakref.ref(self))

    monkeypatch.setattr(batch_module, "_Tape", Tracked)
    return made


def test_no_tape_outlives_the_call(tapes):
    cells = [
        (equal_load(8, 2.0), protocol, replace(SETTINGS, seed=seed))
        for protocol in LANE_PROTOCOLS
        for seed in (1, 2)
    ]
    cells.append((_shared_mmpp(equal_load(8, 2.0)), "rr", SETTINGS))
    run_lanes(cells)
    assert len(tapes) == 2 * 8 + 8
    assert all(tape() is None for tape in tapes)


def test_a_running_lane_sees_only_the_tapes_still_to_be_read(tapes, monkeypatch):
    # The two seeds' cells alternate, so only running the pack grouped
    # by tape keys keeps one seed's tapes at a time.
    lanes = []
    alive = []

    def live(made):
        return frozenset(index for index, tape in enumerate(made) if tape() is not None)

    class Watched(batch_module._Replication):
        def __init__(self, *args):
            super().__init__(*args)
            self.number = len(lanes)
            mine = {id(cursor.tape) for cursor in self.tapes if cursor is not None}
            lanes.append(
                frozenset(i for i, tape in enumerate(tapes) if id(tape()) in mine)
            )

        def advance(self, completions):
            alive.append((self.number, live(tapes)))
            return super().advance(completions)

    monkeypatch.setattr(batch_module, "_Replication", Watched)
    cells = [
        (equal_load(6, load), protocol, replace(SETTINGS, seed=seed))
        for load in (0.5, 2.0)
        for protocol in LANE_PROTOCOLS[:3]
        for seed in (1, 2)
    ]
    random.Random(5).shuffle(cells)
    run_lanes(cells)
    assert len(lanes) == len(cells)
    assert len(tapes) == 4 * 6
    for number, seen in alive:
        assert seen <= frozenset().union(*lanes[number:])
        # One group's tapes at a time: those of the running lane.
        assert seen == lanes[number]


def test_the_last_reader_keeps_no_more_than_a_block(monkeypatch):
    # A lane that is a tape's last reader drops what it has read, so a
    # lone lane holds one block of each stream, as BusAgent's buffer does.
    held = []

    class Watched(batch_module._Replication):
        def advance(self, completions):
            held.extend(len(cursor.tape.values) for cursor in self.tapes if cursor is not None)
            return super().advance(completions)

    monkeypatch.setattr(batch_module, "_Replication", Watched)
    settings = SimulationSettings(batches=2, batch_size=500, warmup=50, seed=9)
    cells = [(equal_load(4, 2.0), protocol, settings) for protocol in ("rr", "fcfs")]
    (lone,) = run_lanes(cells[:1])
    assert lone.collector.total_recorded == 1050
    assert held and max(held) <= _THINK_BLOCK
    # The first of two lanes keeps every variate it drew for the second.
    held.clear()
    run_lanes(cells)
    assert max(held) > 200

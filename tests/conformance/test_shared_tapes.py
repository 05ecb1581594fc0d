"""Shared think-time tapes: a lane pack seeds and draws each stream once.

The lanes of one ``run_lanes`` call that share a ``(seed, agent id,
distribution spec key)`` read one tape of that stream, extended only as
far as a lane asks (``repro.engine.batch``).  A tape hands every lane
the variates its own stream would draw, so a cell must give the same
result whatever company it keeps: the differential property below runs
mixed packs and compares every cell with the same cell run alone and on
the event engine.  The packs hold every kind of stream a lane reads:
renewal streams, per-agent MMPPs, cycling and non-cycling traces (a
long cell that runs a trace out raises, and the pack raises the same
error), classed agents with and without a dropout window, and two
agents sharing one MMPP, whose tapes stay private to their lane.

The count and release tests pin the point of the change: a pack of
the six lane protocols at one seed seeds each agent stream once and
draws each about as far as its most demanding lane, MMPP and classed
streams included, and a tape is gone after the last lane that reads
it.  A stateful stream's lane ends with the MMPP phase its own copy
would reach, and a classed agent in a dropout lane keeps its own
generator.
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
from repro.errors import ConfigurationError
from repro.experiments.runner import SimulationSettings
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.observability import TelemetrySettings
from repro.session import run_cell
from repro.workload.arrivals import (
    MarkovModulatedPoisson,
    bursty_equal_load,
    two_class_priority_load,
)
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


def _per_agent_mmpp(scenario):
    """``scenario`` with every agent drawing from an MMPP of its own."""
    return ScenarioSpec(
        f"{scenario.name}-mmpp",
        tuple(
            replace(spec, interrequest=MarkovModulatedPoisson((0.4, 0.05), (0.05, 0.1)))
            for spec in scenario.agents
        ),
    )


def _non_cycling_trace(length):
    """Three agents, the first replaying a ``length``-sample trace once."""
    first, *rest = equal_load(3, 1.0).agents
    trace = TraceDistribution(synthesize_program_trace(length, seed=1), cycle=False)
    return ScenarioSpec(
        f"non-cycling-trace-{length}", (replace(first, interrequest=trace), *rest)
    )


def _dropout_window(settings):
    """``settings`` with agent 1 off the bus from 20 to 50."""
    plan = FaultPlan(
        events=(
            FaultEvent(time=20.0, kind=FaultKind.AGENT_DROPOUT, agent_id=1, duration=30.0),
        )
    )
    return replace(settings, fault_plan=plan)


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
    variants = (_classed, _shared_mmpp, _cycling_trace, _open_loop, _per_agent_mmpp)
    cells += [
        (variant(base), protocol, settings)
        for variant in variants
        for protocol in protocols[:3]
    ]
    cells += [
        (_classed(base), protocol, _dropout_window(settings)) for protocol in protocols[:3]
    ]
    # One trace key at three run lengths: depending on the trace length,
    # the longer cells run it out, inside a block or past its end.
    trace = _non_cycling_trace(draw(st.integers(min_value=12, max_value=60)))
    cells += [
        (trace, protocol, replace(settings, batch_size=size))
        for size in (10, 20, 40)
        for protocol in protocols[:2]
    ]
    cells.append((base, "rr", _dropouts(settings, sizes[0])))
    # Another seed's cell of the same shape shares no tape.
    cells.append((base, protocols[-1], replace(settings, seed=seed + 1)))
    order = draw(st.permutations(range(len(cells))))
    return [cells[index] for index in order]


def _pickles(results):
    return [pickle.dumps(result) for result in results]


def _outcome(run, cell):
    """The pickle of ``run(cell)``'s result, or the error it raised."""
    try:
        return pickle.dumps(run(cell))
    except ConfigurationError as exc:
        return str(exc)


def _alone(cell):
    (result,) = run_lanes([cell])
    return result


def _event(cell):
    scenario, protocol, settings = cell
    return run_cell(copy.deepcopy(scenario), protocol, replace(settings, engine="event"))


@hyp_settings(max_examples=40, deadline=None)
@given(pack=_packs(), shuffle=st.randoms(use_true_random=False))
def test_a_packed_cell_equals_the_cell_alone_and_on_the_event_engine(pack, shuffle):
    for scenario, protocol, settings in pack:
        capable, reason = batch_capable(scenario, protocol, settings)
        assert capable, reason
    alone = [_outcome(_alone, cell) for cell in pack]
    for cell, expected in zip(pack, alone):
        assert _outcome(_event, cell) == expected, f"{cell[1]} {cell[0].name} on events"
    errors = {outcome for outcome in alone if isinstance(outcome, str)}
    if errors:
        # A cell that runs its trace out fails the whole pack, with the
        # error the cell raises alone.
        with pytest.raises(ConfigurationError) as raised:
            run_lanes(pack)
        assert str(raised.value) in errors
    pack, alone = zip(*[(cell, got) for cell, got in zip(pack, alone) if got not in errors])
    packed = _pickles(run_lanes(pack))
    for cell, got, expected in zip(pack, packed, alone):
        assert got == expected, f"{cell[1]} {cell[0].name} alone"
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

        def run(self):
            alive.append((self.number, live(tapes)))
            return super().run()

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
    # Sampled at every read, the lane's first blocks and its refills
    # mid-run alike: the variates the tape holds plus the block it hands
    # out.
    held = []
    read = batch_module._Tape.read

    def watched(self, pos, end):
        held.append(sum(map(len, self.values.values())) + end - pos)
        return read(self, pos, end)

    monkeypatch.setattr(batch_module._Tape, "read", watched)
    settings = SimulationSettings(batches=2, batch_size=500, warmup=50, seed=9)
    cells = [(equal_load(4, 2.0), protocol, settings) for protocol in ("rr", "fcfs")]
    (lone,) = run_lanes(cells[:1])
    assert lone.collector.total_recorded == 1050
    # Four first blocks, then refills while the lane runs.
    assert len(held) > 2 * 4
    assert max(held) <= _THINK_BLOCK
    # The first of two lanes keeps every variate it drew for the second.
    held.clear()
    run_lanes(cells)
    assert max(held) > 200


#: The protocols and run length of perfbench's ``grid-event`` cells.
EVENT_GRID_PROTOCOLS = ("rr", "fcfs", "fcfs-aincr")
EVENT_GRID_SETTINGS = SimulationSettings(batches=2, batch_size=100, warmup=50, seed=3)


class _CountingMMPP(MarkovModulatedPoisson):
    """An MMPP that tallies, by agent, the variates drawn from it and
    from its copies (which share the tally)."""

    def __init__(self, dist, agent, tally):
        super().__init__(dist.rates, dist.switch_rates, dist.phase)
        self.agent = agent
        self.tally = tally

    def sample_batch(self, rng, count):
        self.tally[self.agent] += count
        return super().sample_batch(rng, count)


def _counted_bursty(tally):
    """``bursty_equal_load(30, 0.9)`` with its MMPPs tallying draws."""
    scenario = bursty_equal_load(30, 0.9)
    return ScenarioSpec(
        scenario.name,
        tuple(
            replace(spec, interrequest=_CountingMMPP(spec.interrequest, spec.agent_id, tally))
            for spec in scenario.agents
        ),
    )


def test_a_bursty_pack_seeds_each_mmpp_stream_once_and_draws_what_its_hungriest_lane_uses(
    seeded,
):
    alone = []
    for protocol in EVENT_GRID_PROTOCOLS:
        tally = defaultdict(int)
        run_lanes([(_counted_bursty(tally), protocol, EVENT_GRID_SETTINGS)])
        alone.append(tally)
    assert set(seeded.values()) == {len(EVENT_GRID_PROTOCOLS)}
    seeded.clear()
    tally = defaultdict(int)
    scenario = _counted_bursty(tally)
    run_lanes([(scenario, protocol, EVENT_GRID_SETTINGS) for protocol in EVENT_GRID_PROTOCOLS])
    assert sorted(seeded) == list(range(1, 31))
    assert set(seeded.values()) == {1}
    assert dict(tally) == {agent: max(lane[agent] for lane in alone) for agent in range(1, 31)}
    assert sum(tally.values()) < sum(sum(lane.values()) for lane in alone) / 2


def _phases(result):
    return [spec.interrequest.phase for spec in result.scenario.agents]


@pytest.mark.parametrize(
    "scenario",
    [bursty_equal_load(30, 0.9), _per_agent_mmpp(equal_load(30, 2.0))],
    ids=["on-off", "two-rate"],
)
def test_each_lane_ends_in_the_mmpp_phase_its_own_stream_reaches(scenario):
    cells = [(scenario, protocol, EVENT_GRID_SETTINGS) for protocol in EVENT_GRID_PROTOCOLS]
    packed = [_phases(result) for result in run_lanes(cells)]
    assert packed == [_phases(_alone(cell)) for cell in cells]
    assert packed == [_phases(_event(cell)) for cell in cells]
    assert not any(spec.interrequest.phase for spec in scenario.agents)  # untouched
    if scenario.agents[0].interrequest.rates[1] > 0.0:
        # An on-off source is in its on phase after every arrival; a
        # two-rate one is not.  The tapes draw from copies, so only the
        # restore moves a lane's phase off the start phase.
        assert any(any(lane) for lane in packed)


def test_a_two_class_pack_seeds_each_classed_stream_once(seeded):
    scenario = two_class_priority_load(30, 2.0, urgent_fraction=0.2)
    cells = [(scenario, protocol, EVENT_GRID_SETTINGS) for protocol in EVENT_GRID_PROTOCOLS]
    packed = _pickles(run_lanes(cells))
    assert sorted(seeded) == list(range(1, 31))
    assert set(seeded.values()) == {1}
    assert packed == [pickle.dumps(_event(cell)) for cell in cells]


def test_a_classed_agent_in_a_dropout_lane_keeps_its_own_generator(seeded):
    scenario = two_class_priority_load(30, 2.0, urgent_fraction=0.2)
    cells = [(scenario, protocol, EVENT_GRID_SETTINGS) for protocol in EVENT_GRID_PROTOCOLS]
    cells.append((scenario, "rr", _dropout_window(EVENT_GRID_SETTINGS)))
    packed = _pickles(run_lanes(cells))
    # One seed for the tape the fault-free lanes share, one for each
    # classed agent of the dropout lane.
    assert sorted(seeded) == list(range(1, 31))
    assert set(seeded.values()) == {2}
    assert packed == [pickle.dumps(_event(cell)) for cell in cells]


def test_a_lane_behind_a_run_out_trace_fails_on_the_same_draw(tmp_path):
    # The rr lane runs agent 1's 20-sample trace out inside a block and
    # finishes within it; the fcfs lane reads that short block from the
    # tape and fails on the draw after it, as it does alone.
    scenario = _non_cycling_trace(20)
    settings = replace(SETTINGS, seed=5)
    short = (scenario, "rr", replace(settings, batch_size=20))
    (ran_out,) = run_lanes([short])
    assert ran_out.scenario.agents[0].interrequest.spec_key()[-1]  # exhausted

    def failing(path):
        telemetry = TelemetrySettings(jsonl_path=str(tmp_path / path))
        return (scenario, "fcfs", replace(settings, telemetry=telemetry))

    with pytest.raises(ConfigurationError, match="exhausted") as alone:
        run_lanes([failing("alone.jsonl")])
    with pytest.raises(ConfigurationError) as packed:
        run_lanes([short, failing("packed.jsonl")])
    assert str(packed.value) == str(alone.value)
    events = (tmp_path / "alone.jsonl").read_text()
    assert events and (tmp_path / "packed.jsonl").read_text() == events


def test_a_lane_never_changes_a_block_its_tape_keeps(monkeypatch):
    # A lane copies each block into its buffer and pops the copy, so the
    # blocks a tape keeps for its later lanes stay as drawn, and lanes
    # sharing every tape (think times alone, think times and classes)
    # each equal their solo runs.
    handed = []
    read = batch_module._Tape.read

    def watched(self, pos, end):
        block = read(self, pos, end)
        handed.append((block, list(block)))
        return block

    monkeypatch.setattr(batch_module._Tape, "read", watched)
    settings = replace(SETTINGS, seed=11)
    cells = [
        (scenario, protocol, settings)
        for scenario in (equal_load(6, 2.0), _classed(equal_load(6, 2.0)))
        for protocol in ("rr", "fcfs", "fixed")
    ]
    packed = _pickles(run_lanes(cells))
    assert len(handed) > 2 * 6
    assert all(block == drawn for block, drawn in handed)
    monkeypatch.undo()
    assert packed == [pickle.dumps(_alone(cell)) for cell in cells]

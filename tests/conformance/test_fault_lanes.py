"""Differential property suite: the fault-observable protocols on lanes.

``rr-faulty-register`` (§3.1) replicates the last-winner register at
every agent, so a dropped winner broadcast leaves one agent's RR bit
stale until it observes the next arbitration.  ``fcfs-glitchable``
(§3.2) lets a single-event upset overwrite one pending waiting
counter, which heals at the next request.  Their lane kernels run both
arbiter-level faults as lane fault timers next to dropout and rejoin,
and a faulted lane takes the key-free kernel pass whenever no line
fault is due and no watchdog episode is open.

The contract is the usual one: every result is pickle-identical to the
event engine's, for every bus width, arrival process, class mix, bus
clock, plan (arbiter-level kinds, bus-level kinds, both, victims beyond
the bus) and telemetry setting.  A second property per kernel drives
the kernel and the event arbiter through the same request, fault,
arbitrate and grant steps and compares the key maps line faults
perturb, winners and the replicated fault state.
"""

import copy
import pickle
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

import repro.engine.batch as batch_module
import repro.session.single as single_module
from repro.bus.timing import BusTiming
from repro.bus.watchdog import WatchdogPolicy
from repro.engine.batch import _KERNELS, batch_capable, run_lanes
from repro.experiments.robustness import run as run_faults_grid
from repro.experiments.runner import SimulationSettings, make_arbiter, run_simulation
from repro.experiments.scale import current_scale
from repro.faults.injector import FaultInjector
from repro.faults.plan import BUS_LEVEL_FAULTS, FaultKind, FaultPlan
from repro.observability.events import TelemetrySettings
from repro.observability.golden import GOLDEN_SCENARIOS, golden_trace_lines
from repro.protocols.registry import get_spec
from repro.session import Session, plan_runs
from repro.session.outcome import ROUTE_DIRECT
from repro.workload.arrivals import bursty_equal_load
from repro.workload.scenarios import ScenarioSpec, equal_load, open_loop_equal_load

#: Each fault-observable protocol and the arbiter-level kind it models.
ARBITER_FAULT = {
    "rr-faulty-register": FaultKind.DROPPED_BROADCAST,
    "fcfs-glitchable": FaultKind.COUNTER_UPSET,
}

#: Per-agent urgent probabilities: unclassed, occasional, always.
FRACTIONS = (0.0, 0.2, 1.0)

_BUS_KINDS = tuple(sorted(BUS_LEVEL_FAULTS, key=lambda kind: kind.value))


def _canonical(result):
    return pickle.dumps(pickle.loads(pickle.dumps(result)))


def _source(kind, agents, load):
    if kind == "closed":
        return equal_load(agents, min(load, 0.95 * agents))
    if kind == "open":
        return open_loop_equal_load(agents, min(load, 0.9), max_outstanding=1)
    return bursty_equal_load(agents, min(load, 0.9))


def _classed(base, fractions):
    """``base`` with agent i's urgent probability ``fractions[i % len]``."""
    return ScenarioSpec(
        name=f"{base.name}-classed",
        agents=tuple(
            replace(spec, priority_fraction=fractions[index % len(fractions)])
            for index, spec in enumerate(base.agents)
        ),
    )


def _plan(protocol, menu, agents, wider, rate, seed):
    """A seeded plan: the arbiter-level kind, the bus-level ones or both.

    ``wider`` draws victims from a bus two agents wider, so some faults
    aim at agents that are not there and must count as skipped.
    """
    arbiter_kind = ARBITER_FAULT[protocol]
    kinds = {
        "arbiter": (arbiter_kind,),
        "bus": _BUS_KINDS,
        "both": _BUS_KINDS + (arbiter_kind,),
    }[menu]
    return FaultPlan.generate(
        seed=seed,
        rate=rate,
        horizon=150.0,
        kinds=kinds,
        num_agents=agents + (2 if wider else 0),
        start=5.0,
        line_span=get_spec(protocol).number_width(agents),
    )


def _cells(protocol):
    return st.builds(
        lambda kind, agents, load, fractions, period, menu, wider, rate, seed, telemetry: (
            _classed(_source(kind, agents, load), fractions),
            protocol,
            SimulationSettings(
                batches=2,
                batch_size=40,
                warmup=10,
                seed=seed,
                keep_records=True,
                timing=BusTiming(clock_period=period),
                fault_plan=_plan(protocol, menu, agents, wider, rate, seed),
                watchdog=WatchdogPolicy(),
                telemetry=(
                    TelemetrySettings(events=True, metrics=True) if telemetry else None
                ),
            ),
        ),
        kind=st.sampled_from(["closed", "open", "bursty"]),
        agents=st.integers(min_value=1, max_value=30),
        load=st.sampled_from([0.3, 0.9, 2.0, 7.5]),
        fractions=st.lists(st.sampled_from(FRACTIONS), min_size=1, max_size=3),
        period=st.sampled_from([0.0, 0.0, 0.25, 0.3]),
        menu=st.sampled_from(["arbiter", "bus", "both"]),
        wider=st.booleans(),
        rate=st.sampled_from([0.02, 0.1, 0.3]),
        seed=st.integers(min_value=0, max_value=2**16),
        telemetry=st.booleans(),
    )


def _assert_lane_equals_event(cell):
    scenario, protocol, settings = cell
    capable, reason = batch_capable(scenario, protocol, settings)
    assert capable, reason
    (lane,) = run_lanes([copy.deepcopy(cell)])
    event = run_simulation(
        copy.deepcopy(scenario), protocol, replace(settings, engine="event")
    )
    assert lane.collector.records == event.collector.records
    assert lane.failed == event.failed
    assert _canonical(lane) == _canonical(event)


@hyp_settings(max_examples=60, deadline=None)
@given(cell=_cells("rr-faulty-register"))
def test_faulty_register_lane_equals_event_engine(cell):
    _assert_lane_equals_event(cell)


@hyp_settings(max_examples=60, deadline=None)
@given(cell=_cells("fcfs-glitchable"))
def test_glitchable_fcfs_lane_equals_event_engine(cell):
    _assert_lane_equals_event(cell)


# -- kernel against event arbiter ---------------------------------------------

_steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("request"),
            st.integers(min_value=1, max_value=30),
            st.booleans(),
            st.sampled_from([0.0, 0.5]),
        ),
        # (keyed pass?, grant the winner?) — an ungranted pass is an
        # anomalous one: the arbiter's state moved, nobody got the bus.
        st.tuples(st.just("arbitrate"), st.booleans(), st.booleans()),
        st.tuples(
            st.just("fault"),
            st.integers(min_value=1, max_value=30),
            st.integers(min_value=0, max_value=40),
        ),
    ),
    min_size=1,
    max_size=80,
)


def _inject(protocol, arbiter, kernel, agent, value):
    if protocol == "rr-faulty-register":
        arbiter.drop_winner_observations(agent, 1)
        kernel.drop_winner_observations(agent)
        return
    hit = kernel.glitch_counter(agent, value)
    assert hit == (agent in arbiter.waiting_agents())
    if hit:
        arbiter.glitch_counter(agent, value)


def _assert_same_fault_state(protocol, arbiter, kernel, agents):
    if protocol == "rr-faulty-register":
        views = {
            agent: kernel.view[agent] if kernel.stale >> agent & 1 else kernel.last_winner
            for agent in range(1, agents + 1)
        }
        assert views == arbiter.view
        return
    for agent in arbiter.waiting_agents():
        assert kernel.counter[agent] % kernel.modulus == arbiter.pending_requests_counter(
            agent
        )


@hyp_settings(max_examples=200, deadline=None)
@given(
    protocol=st.sampled_from(sorted(ARBITER_FAULT)),
    agents=st.integers(min_value=1, max_value=30),
    steps=_steps,
)
def test_kernel_keys_equal_event_arbiter_keys(protocol, agents, steps):
    # Line faults perturb the key map, so it must be exactly the event
    # arbiter's numbers — for the faulty register, each RR bit from the
    # agent's own view, urgent requests included — on keyed and
    # key-free passes alike, through drops and counter upsets.
    arbiter = make_arbiter(protocol, agents)
    kernel = _KERNELS[protocol](agents)
    now = 0.0
    for step in steps:
        if step[0] == "request":
            _, agent, urgent, gap = step
            agent = 1 + (agent - 1) % agents
            now += gap
            if not kernel.pending >> agent & 1:
                arbiter.request(agent, now, priority=urgent)
                kernel.request(agent, now, urgent)
        elif step[0] == "fault":
            _, agent, value = step
            _inject(protocol, arbiter, kernel, 1 + (agent - 1) % agents, value)
        elif kernel.pending:
            _, keyed, grant = step
            outcome = arbiter.start_arbitration(now)
            if keyed:
                winner, rounds, competitors, keys = kernel.arbitrate_keys()
                assert keys == dict(outcome.keys)
            else:
                winner, rounds, competitors = kernel.arbitrate_classed()
            assert (winner, rounds) == (outcome.winner, outcome.rounds)
            assert competitors == sum(1 << agent for agent in outcome.competitors)
            if grant:
                arbiter.grant(winner, now)
                kernel.grant(winner)
        _assert_same_fault_state(protocol, arbiter, kernel, agents)


# -- fault timers ---------------------------------------------------------------


@pytest.fixture
def injectors(monkeypatch):
    """Every FaultInjector either engine builds, in construction order."""
    made = []

    class Recording(FaultInjector):
        def __init__(self, plan):
            super().__init__(plan)
            made.append(self)

    monkeypatch.setattr(batch_module, "FaultInjector", Recording)
    monkeypatch.setattr(single_module, "FaultInjector", Recording)
    return made


@pytest.mark.parametrize("protocol", sorted(ARBITER_FAULT))
@pytest.mark.parametrize("seed", (3, 17))
def test_fault_timers_keep_the_injector_books(injectors, protocol, seed):
    plan = _plan(protocol, "both", 5, wider=True, rate=0.3, seed=seed)
    settings = SimulationSettings(batches=2, batch_size=40, warmup=10, seed=seed,
                                  fault_plan=plan)
    lane = run_simulation(equal_load(5, 2.5), protocol, settings)
    event = run_simulation(equal_load(5, 2.5), protocol, replace(settings, engine="event"))
    assert _canonical(lane) == _canonical(event)
    on_lanes, on_events = injectors
    kind = ARBITER_FAULT[protocol].value
    assert on_lanes.applied == on_events.applied
    assert on_lanes.skipped == on_events.skipped
    # Victims on and off the bus: the timer both applied and skipped.
    assert on_lanes.applied.get(kind) and on_lanes.skipped.get(kind)


#: The plan that used to crash the event engine: victims drawn from ten
#: agents, run on a bus of four.
_WIDE_BROADCAST_DROPS = dict(
    seed=5, rate=0.2, horizon=200.0, kinds=(FaultKind.DROPPED_BROADCAST,),
    num_agents=10, start=10.0,
)


@pytest.mark.parametrize("protocol", ("rr-faulty-register", "rotating-rr"))
def test_broadcast_drop_aimed_off_the_bus_is_skipped(injectors, protocol):
    plan = FaultPlan.generate(**_WIDE_BROADCAST_DROPS)
    settings = SimulationSettings(batches=2, batch_size=50, warmup=5, seed=5,
                                  fault_plan=plan)
    results = [
        run_simulation(equal_load(4, 2.0), protocol, replace(settings, engine=engine))
        for engine in ("event", "batch")
    ]
    assert _canonical(results[0]) == _canonical(results[1])
    # rotating-rr has no kernel: its batch request ran on the event engine.
    assert batch_capable(equal_load(4, 2.0), protocol, settings)[0] == (
        protocol == "rr-faulty-register"
    )
    fired = [event for event in plan.events if event.time < results[0].elapsed]
    off_bus = sum(1 for event in fired if event.agent_id > 4)
    assert off_bus
    for injector in injectors:
        assert injector.skipped == {"dropped-broadcast": off_bus}
        assert injector.applied == {"dropped-broadcast": len(fired) - off_bus}


@pytest.mark.parametrize("protocol", sorted(ARBITER_FAULT))
def test_faulted_lane_builds_key_maps_only_when_a_line_fault_is_due(monkeypatch, protocol):
    # An arbiter-level plan never perturbs the lines, so the lane never
    # asks for a key map; a bus-level plan asks only on some passes.
    kernel_type = type(_KERNELS[protocol](2))
    keyed = []
    real = kernel_type.arbitrate_keys

    def counting(self):
        keyed.append(1)
        return real(self)

    monkeypatch.setattr(kernel_type, "arbitrate_keys", counting)
    settings = SimulationSettings(
        batches=2, batch_size=40, warmup=10, seed=9,
        telemetry=TelemetrySettings(events=True),
    )
    arbiter_only = replace(settings, fault_plan=_plan(protocol, "arbiter", 6, False, 0.3, 9))
    (lane,) = run_lanes([(equal_load(6, 3.0), protocol, arbiter_only)])
    assert len(lane.events) > 0 and keyed == []
    bus = replace(settings, fault_plan=_plan(protocol, "bus", 6, False, 0.3, 9))
    (lane,) = run_lanes([(equal_load(6, 3.0), protocol, bus)])
    assert 0 < len(keyed) < len(lane.events)


# -- goldens and routing --------------------------------------------------------


@pytest.mark.parametrize("name", ("rr-register-faults", "fcfs-counter-faults"))
def test_arbiter_fault_golden_twin_runs_on_lanes_byte_equal(name):
    golden = GOLDEN_SCENARIOS[f"batch-{name}"]
    assert golden.engine == "batch"
    assert golden.fault_rate > 0.0
    assert ARBITER_FAULT[golden.protocol] in get_spec(golden.protocol).injectable_faults
    assert golden_trace_lines(f"batch-{name}") == golden_trace_lines(name)
    stored = Path(__file__).resolve().parent.parent / "golden"
    assert (stored / f"batch-{name}.jsonl").read_bytes() == (
        stored / f"{name}.jsonl"
    ).read_bytes()


def test_batch_capable_admits_only_the_kinds_a_kernel_executes():
    settings = SimulationSettings(watchdog=WatchdogPolicy())
    drops = FaultPlan.generate(seed=1, rate=0.5, horizon=50.0,
                               kinds=(FaultKind.DROPPED_BROADCAST,), num_agents=4)
    upsets = FaultPlan.generate(seed=1, rate=0.5, horizon=50.0,
                                kinds=(FaultKind.COUNTER_UPSET,), num_agents=4)
    scenario = equal_load(4, 2.0)
    assert batch_capable(scenario, "rr-faulty-register", replace(settings, fault_plan=drops))[0]
    assert batch_capable(scenario, "fcfs-glitchable", replace(settings, fault_plan=upsets))[0]
    capable, reason = batch_capable(scenario, "rr", replace(settings, fault_plan=drops))
    assert not capable and "dropped-broadcast" in reason
    capable, reason = batch_capable(
        scenario, "rr-faulty-register", replace(settings, fault_plan=upsets)
    )
    assert not capable and "counter-upset" in reason


class _Recording(Session):
    """A session that keeps every request batch it is asked to run."""

    def __init__(self):
        super().__init__(jobs=1)
        self.seen = []

    def run_requests(self, requests, control=None):
        self.seen.extend(requests)
        return super().run_requests(requests, control=control)


def test_faults_grid_plans_only_rotating_rr_direct():
    # `repro faults` at smoke scale, default protocols and rates: the
    # baselines and fault cells of both fault-observable protocols ride
    # lanes; only rotating-rr, which has no kernel, runs direct.
    session = _Recording()
    run_faults_grid(scale=current_scale("smoke"), executor=session)
    plan = plan_runs(session.seen)
    direct = [run for run in plan.runs if run.route == ROUTE_DIRECT]
    assert {run.request.protocol for run in plan.lane_runs} == {
        "rr-faulty-register", "fcfs-glitchable",
    }
    assert direct and {run.request.protocol for run in direct} == {"rotating-rr"}
    assert {run.reason for run in direct} == {"protocol 'rotating-rr' has no batch kernel"}

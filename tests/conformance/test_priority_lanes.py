"""Differential property suite: two-class priority cells on the lane engine.

§2.4 integrates priority by prepending one bit to every protocol's
arbitration number: an urgent request beats every normal one, and
inside each class the protocol keeps its own rule.  The lane kernels
carry the class as a second bitmask beside the pending set, and a lane
draws each request's class on the agent's stream exactly where
``BusAgent`` does (one uniform per issue, between two one-at-a-time
think draws).  The contract is the usual one: every result is
pickle-identical to the event engine's, for every lane protocol, bus
width, per-agent class mix (unclassed, occasional and always-urgent
agents side by side), arrival process, bus clock, bus-level fault plan
and telemetry setting.

Results are compared by canonical pickle (one round trip, see
``test_route_equivalence.py``), which covers the collector with its
``CompletionRecord.priority`` flags, the event stream and the metrics
registry with its per-class series.  A second property drives a kernel
and the event arbiter through the same request/arbitrate/grant steps
and compares their key maps, the surface line faults perturb.

Saturated closed-loop cells (total load 2.0 and 7.5) latch the next
winner during nearly every tenure, so the lane absorbs requests (each
drawing its class) and goes straight to the release; they run for
every protocol, since the sampled loads reach them only by chance.
"""

import copy
import pickle
from dataclasses import replace

import pytest

from hypothesis import example, given, settings as hyp_settings, strategies as st

from repro.bus.timing import BusTiming
from repro.engine.batch import batch_capable, run_lanes
from repro.experiments.robustness import fault_plan_for
from repro.experiments.runner import SimulationSettings, run_simulation
from repro.experiments.scale import Scale
from repro.observability.events import TelemetrySettings
from repro.protocols.registry import get_spec, protocol_names
from repro.workload.arrivals import bursty_equal_load
from repro.workload.scenarios import ScenarioSpec, equal_load, open_loop_equal_load

LANE_PROTOCOLS = tuple(
    name for name in protocol_names() if get_spec(name).supports_batch
)

#: Per-agent urgent probabilities: unclassed, occasional, even, always.
FRACTIONS = (0.0, 0.2, 0.5, 1.0)

#: Run length of every generated cell.
SCALE = Scale("priority-lanes", batches=2, batch_size=40, warmup=10)


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


_cells = st.builds(
    lambda kind, agents, load, fractions, protocol, period, seed, faults, telemetry: (
        _classed(_source(kind, agents, load), fractions),
        protocol,
        SimulationSettings(
            batches=SCALE.batches,
            batch_size=SCALE.batch_size,
            warmup=SCALE.warmup,
            seed=seed,
            keep_records=True,
            timing=BusTiming(clock_period=period),
            fault_plan=fault_plan_for(protocol, 0.05, SCALE, seed) if faults else None,
            telemetry=(
                TelemetrySettings(events=True, metrics=True) if telemetry else None
            ),
        ),
    ),
    kind=st.sampled_from(["closed", "open", "bursty"]),
    agents=st.integers(min_value=1, max_value=30),
    load=st.sampled_from([0.3, 0.9, 2.0, 7.5]),
    fractions=st.lists(st.sampled_from(FRACTIONS), min_size=1, max_size=4),
    protocol=st.sampled_from(LANE_PROTOCOLS),
    period=st.sampled_from([0.0, 0.0, 0.25, 0.3]),
    seed=st.integers(min_value=0, max_value=2**16),
    faults=st.booleans(),
    telemetry=st.booleans(),
)


def _event(cell):
    scenario, protocol, settings = cell
    return run_simulation(
        copy.deepcopy(scenario), protocol, replace(settings, engine="event")
    )


@hyp_settings(max_examples=80, deadline=None)
@given(cell=_cells)
def test_priority_lane_equals_event_engine(cell):
    scenario, protocol, settings = cell
    capable, reason = batch_capable(scenario, protocol, settings)
    assert capable, reason
    (lane,) = run_lanes([copy.deepcopy(cell)])
    event = _event(cell)
    assert lane.collector.records == event.collector.records
    assert _canonical(lane) == _canonical(event)


@pytest.mark.parametrize("load", (2.0, 7.5))
@pytest.mark.parametrize("protocol", LANE_PROTOCOLS)
def test_saturated_priority_lane_equals_event_engine(protocol, load):
    cell = (
        _classed(equal_load(8, load), FRACTIONS),
        protocol,
        SimulationSettings(
            batches=SCALE.batches,
            batch_size=SCALE.batch_size,
            warmup=SCALE.warmup,
            seed=17,
        ),
    )
    (lane,) = run_lanes([copy.deepcopy(cell)])
    assert _canonical(lane) == _canonical(_event(cell))


_steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("request"),
            st.integers(min_value=1, max_value=30),
            st.booleans(),
            st.sampled_from([0.0, 0.5]),
        ),
        st.tuples(st.just("arbitrate"), st.booleans()),
    ),
    min_size=1,
    max_size=80,
)


#: An urgent and a normal requester on one keyed pass.
_MIXED_PASS = [("request", 2, True, 0.0), ("request", 3, False, 0.5), ("arbitrate", True)]


@hyp_settings(max_examples=200, deadline=None)
@example(protocol="rr", agents=4, steps=_MIXED_PASS)
@example(protocol="fcfs", agents=4, steps=_MIXED_PASS)
@given(
    protocol=st.sampled_from(LANE_PROTOCOLS),
    agents=st.integers(min_value=1, max_value=30),
    steps=_steps,
)
def test_kernel_keys_equal_event_arbiter_keys(protocol, agents, steps):
    # The fault injector perturbs the key map, so it must be exactly the
    # event arbiter's numbers, priority bit included: the same winner,
    # rounds and competitors on every pass, and the same keys on every
    # pass that asks for them, whether or not the kernel's class-blind
    # passes (arbitrate_classed) are interleaved.
    from repro.engine.batch import _KERNELS
    from repro.experiments.runner import make_arbiter

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
        elif kernel.pending:
            outcome = arbiter.start_arbitration(now)
            if step[1]:
                winner, rounds, competitors, keys = kernel.arbitrate_keys()
                assert keys == dict(outcome.keys)
            else:
                winner, rounds, competitors = kernel.arbitrate_classed()
            assert (winner, rounds) == (outcome.winner, outcome.rounds)
            assert competitors == sum(1 << agent for agent in outcome.competitors)
            arbiter.grant(winner, now)
            kernel.grant(winner)

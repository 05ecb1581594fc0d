"""Differential property suite: open-loop r=1 agents on the lane engine.

An open-loop agent with one request outstanding at most blocks its
generation at issue and resumes with a fresh think draw at completion
(``BusAgent``) — the closed-loop cycle — so such cells run on the lane
engine.  The contract is the lane engine's usual one: every result is
pickle-identical to the event engine's, whatever the arrival process
(Poisson, renewal with cv != 1, on-off MMPP), protocol, bus-level
fault plan or telemetry, and independent of the order cells are handed
to :func:`~repro.engine.batch.run_lanes`.

Results are compared by canonical pickle (one round trip, see
``test_route_equivalence.py``), which covers the collector, the event
stream, the metrics registry — including the per-flow series the event
engine adds for open-loop scenarios — and the scenario's final MMPP
phases.

An open-loop load stays below 1, but an r=1 agent's clock stops while
its request is in flight, so agents with a closed-loop think time of
total load 2.0 or 7.5 saturate the bus.  Those cells latch the next
winner during nearly every tenure, so the lane absorbs requests and
goes straight to the release; they run for every protocol.
"""

import copy
import pickle
from dataclasses import replace

import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from repro.engine.batch import batch_capable, run_lanes
from repro.experiments.robustness import fault_plan_for
from repro.experiments.runner import SimulationSettings
from repro.experiments.scale import Scale
from repro.faults.plan import BUS_LEVEL_FAULTS, FaultPlan
from repro.observability.events import TelemetrySettings
from repro.protocols.registry import get_spec, protocol_names
from repro.session import run_cell
from repro.workload.arrivals import bursty_equal_load
from repro.workload.scenarios import ScenarioSpec, equal_load, open_loop_equal_load

LANE_PROTOCOLS = tuple(
    name for name in protocol_names() if get_spec(name).supports_batch
)

#: Run length of every generated cell.
SCALE = Scale("openloop-lanes", batches=2, batch_size=40, warmup=10)


def _canonical(result):
    return pickle.dumps(pickle.loads(pickle.dumps(result)))


def _scenario(arrivals, agents, load):
    if arrivals == "mmpp":
        return bursty_equal_load(agents, load)
    cv = 1.0 if arrivals == "poisson" else arrivals
    return open_loop_equal_load(agents, load, cv=cv, max_outstanding=1)


def _fault_plan(faults, protocol, agents, seed):
    if faults == "grid":
        return fault_plan_for(protocol, 0.05, SCALE, seed)
    if faults == "dropout":
        spec = get_spec(protocol)
        return FaultPlan.generate(
            seed=seed,
            rate=0.05,
            horizon=float(SCALE.total_completions),
            kinds=tuple(sorted(BUS_LEVEL_FAULTS, key=lambda kind: kind.value)),
            num_agents=agents,
            line_span=spec.number_width(agents) if spec.number_width else 4,
        )
    return None


_cells = st.builds(
    lambda arrivals, agents, load, protocol, seed, faults, telemetry: (
        _scenario(arrivals, agents, load),
        protocol,
        SimulationSettings(
            batches=SCALE.batches,
            batch_size=SCALE.batch_size,
            warmup=SCALE.warmup,
            seed=seed,
            keep_order=True,
            fault_plan=_fault_plan(faults, protocol, agents, seed),
            telemetry=(
                TelemetrySettings(events=True, metrics=True) if telemetry else None
            ),
        ),
    ),
    arrivals=st.sampled_from(["poisson", 0.0, 0.5, 2.0, "mmpp"]),
    agents=st.integers(min_value=1, max_value=30),
    load=st.sampled_from([0.3, 0.6, 0.9, 0.97]),
    protocol=st.sampled_from(LANE_PROTOCOLS),
    seed=st.integers(min_value=0, max_value=2**16),
    faults=st.sampled_from([None, "grid", "dropout"]),
    telemetry=st.booleans(),
)


def _event(cell):
    scenario, protocol, settings = cell
    return run_cell(copy.deepcopy(scenario), protocol, replace(settings, engine="event"))


@hyp_settings(max_examples=40, deadline=None)
@given(cell=_cells)
def test_open_loop_lane_equals_event_engine(cell):
    scenario, protocol, settings = cell
    capable, reason = batch_capable(scenario, protocol, settings)
    assert capable, reason
    (lane,) = run_lanes([cell])
    assert _canonical(lane) == _canonical(_event(cell))


@hyp_settings(max_examples=15, deadline=None)
@given(cells=st.lists(_cells, min_size=2, max_size=4), data=st.data())
def test_run_lanes_output_is_independent_of_cell_order(cells, data):
    order = data.draw(st.permutations(range(len(cells))))
    forward = run_lanes(cells)
    permuted = run_lanes([cells[index] for index in order])
    for position, index in enumerate(order):
        assert _canonical(permuted[position]) == _canonical(forward[index])
    assert _canonical(forward[0]) == _canonical(_event(cells[0]))


def test_open_loop_metrics_carry_the_flow_series():
    # The flow series are what made events+metrics cells differ before
    # the lane engine learned them; pin their presence explicitly.
    settings = SimulationSettings(
        batches=2,
        batch_size=40,
        warmup=10,
        seed=5,
        telemetry=TelemetrySettings(metrics=True),
    )
    (lane,) = run_lanes([(bursty_equal_load(4, 0.9), "rr", settings)])
    event = _event((bursty_equal_load(4, 0.9), "rr", settings))
    assert lane.metrics == event.metrics
    assert _canonical(lane) == _canonical(event)
    assert "flow.share.agent.1.normal" in lane.metrics.counters()
    assert "wait.class.normal" in lane.metrics.histograms()


def _saturated_open_loop(agents, load):
    """r=1 open-loop agents with ``equal_load``'s closed-loop think times."""
    base = equal_load(agents, load)
    return ScenarioSpec(
        name=f"{base.name}-open",
        agents=tuple(
            replace(spec, open_loop=True, max_outstanding=1) for spec in base.agents
        ),
    )


@pytest.mark.parametrize("load", (2.0, 7.5))
@pytest.mark.parametrize("protocol", LANE_PROTOCOLS)
def test_saturated_open_loop_lane_equals_event_engine(protocol, load):
    cell = (
        _saturated_open_loop(8, load),
        protocol,
        SimulationSettings(
            batches=SCALE.batches,
            batch_size=SCALE.batch_size,
            warmup=SCALE.warmup,
            seed=17,
            telemetry=TelemetrySettings(metrics=True),
        ),
    )
    capable, reason = batch_capable(*cell)
    assert capable, reason
    (lane,) = run_lanes([copy.deepcopy(cell)])
    assert _canonical(lane) == _canonical(_event(cell))

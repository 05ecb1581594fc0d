"""Differential property suite: synchronous-bus cells on the lane engine.

On a clocked bus (``BusTiming.clock_period > 0``, §2.1) arbitration
control waits for the next clock edge twice: an arbitration starts at
the first edge after its trigger, and a winner whose lines settle on an
idle bus is granted at the next edge.  The lane engine schedules both
waits with the event engine's own ``now + delay_to_next_edge(now)``
expression, so the contract is the usual one: every result is
pickle-identical to the event engine's, whatever the period (dividing
the bus times or not), settle time, workload, protocol, bus-level fault
plan or telemetry.

Results are compared by canonical pickle (one round trip, see
``test_route_equivalence.py``), which covers the collector, the event
stream and the metrics registry.

Saturated cells (total load 2.0 and 7.5) latch the next winner during
nearly every tenure, so the lane absorbs requests and goes straight to
the release; they run for every protocol and two periods, since the
sampled loads reach them only by chance.
"""

import copy
import pickle
from dataclasses import replace

import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from repro.bus.timing import BusTiming
from repro.engine.batch import batch_capable, run_lanes
from repro.experiments.robustness import fault_plan_for
from repro.experiments.runner import SimulationSettings
from repro.experiments.scale import Scale
from repro.observability.events import TelemetrySettings
from repro.protocols.registry import get_spec, protocol_names
from repro.session import run_cell
from repro.workload.scenarios import equal_load, open_loop_equal_load

LANE_PROTOCOLS = tuple(
    name for name in protocol_names() if get_spec(name).supports_batch
)

#: Clock periods that divide the default bus times, then three that do not.
PERIODS = (0.125, 0.25, 0.5, 0.1, 0.3, 0.7)

#: Run length of every generated cell.
SCALE = Scale("synchronous-lanes", batches=2, batch_size=40, warmup=10)


def _canonical(result):
    return pickle.dumps(pickle.loads(pickle.dumps(result)))


def _scenario(loop, cv, agents, load):
    if loop == "open":
        return open_loop_equal_load(agents, min(load, 0.9), cv=cv, max_outstanding=1)
    return equal_load(agents, min(load, 0.95 * agents), cv=cv)


_cells = st.builds(
    lambda loop, cv, agents, load, protocol, period, arbitration, seed, faults, telemetry: (
        _scenario(loop, cv, agents, load),
        protocol,
        SimulationSettings(
            batches=SCALE.batches,
            batch_size=SCALE.batch_size,
            warmup=SCALE.warmup,
            seed=seed,
            keep_order=True,
            timing=BusTiming(arbitration_time=arbitration, clock_period=period),
            fault_plan=fault_plan_for(protocol, 0.05, SCALE, seed) if faults else None,
            telemetry=(
                TelemetrySettings(events=True, metrics=True) if telemetry else None
            ),
        ),
    ),
    loop=st.sampled_from(["closed", "open"]),
    cv=st.sampled_from([0.0, 1.0, 2.0]),
    agents=st.integers(min_value=1, max_value=30),
    load=st.sampled_from([0.3, 0.9, 2.0, 7.5]),
    protocol=st.sampled_from(LANE_PROTOCOLS),
    period=st.sampled_from(PERIODS),
    arbitration=st.sampled_from([0.0, 0.5]),
    seed=st.integers(min_value=0, max_value=2**16),
    faults=st.booleans(),
    telemetry=st.booleans(),
)


def _event(cell):
    scenario, protocol, settings = cell
    return run_cell(copy.deepcopy(scenario), protocol, replace(settings, engine="event"))


@hyp_settings(max_examples=60, deadline=None)
@given(cell=_cells)
def test_synchronous_lane_equals_event_engine(cell):
    scenario, protocol, settings = cell
    capable, reason = batch_capable(scenario, protocol, settings)
    assert capable, reason
    (lane,) = run_lanes([cell])
    assert _canonical(lane) == _canonical(_event(cell))


@pytest.mark.parametrize("period", (0.25, 0.3))
@pytest.mark.parametrize("load", (2.0, 7.5))
@pytest.mark.parametrize("protocol", LANE_PROTOCOLS)
def test_saturated_synchronous_lane_equals_event_engine(protocol, load, period):
    cell = (
        equal_load(8, load),
        protocol,
        SimulationSettings(
            batches=SCALE.batches,
            batch_size=SCALE.batch_size,
            warmup=SCALE.warmup,
            seed=17,
            timing=BusTiming(clock_period=period),
        ),
    )
    (lane,) = run_lanes([copy.deepcopy(cell)])
    assert _canonical(lane) == _canonical(_event(cell))

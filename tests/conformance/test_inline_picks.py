"""Inline picks: a clean, class-blind lane pass picks without a kernel call.

A lane with no classed agent and no fault injector picks every winner
inside ``_Replication.run``, over the pending mask the lane holds: the
round-robin two-bitmask maximum (implementation 3 settling twice when
no agent is below the last winner), the highest pending bit for fixed
priority, and a pop of the arrival heap for fault-free FCFS.  The other
lanes call their kernel, after copying the lane's mask to it: classed
lanes, faulted lanes (a clean pass, a key map, a counter upset) and
``rr-faulty-register``.

Every lane must equal the event engine by canonical pickle of its whole
result, and a lane streaming its arbitration events to JSONL (which is
what makes it report each pass's competitors) must write the event
engine's file byte for byte.  The suite runs the inline lanes alone
over bus widths, mixed per-agent loads, clocks and a watchdog, and in
packs beside a classed lane and a faulted lane, in any order.
"""

import copy
import os
import pickle
import tempfile
from dataclasses import replace

import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from repro.bus.timing import BusTiming
from repro.bus.watchdog import WatchdogPolicy
from repro.engine.batch import batch_capable, run_lanes
from repro.experiments.runner import SimulationSettings
from repro.faults.plan import BUS_LEVEL_FAULTS, FaultKind, FaultPlan
from repro.observability.events import TelemetrySettings
from repro.protocols.registry import get_spec
from repro.session import run_cell
from repro.workload.arrivals import two_class_priority_load
from repro.workload.distributions import from_mean_cv
from repro.workload.scenarios import AgentSpec, ScenarioSpec, mean_interrequest_for_load

#: The protocols whose fault-free, unclassed lanes pick inline.
INLINE_PROTOCOLS = (
    "rr",
    "rr-impl2",
    "rr-impl3",
    "fixed",
    "fcfs",
    "fcfs-aincr",
    "fcfs-glitchable",
)

#: Each fault-observable protocol and the arbiter-level kind it models.
ARBITER_FAULT = {
    "rr-faulty-register": FaultKind.DROPPED_BROADCAST,
    "fcfs-glitchable": FaultKind.COUNTER_UPSET,
}

SETTINGS = SimulationSettings(batches=2, batch_size=40, warmup=10)

_BUS_KINDS = tuple(sorted(BUS_LEVEL_FAULTS, key=lambda kind: kind.value))


def _canonical(result):
    return pickle.dumps(pickle.loads(pickle.dumps(result)))


def _mixed_load(agents, loads, cv):
    """``agents`` agents, agent i offering ``loads[i % len(loads)]``."""
    return ScenarioSpec(
        name="mixed-load",
        agents=tuple(
            AgentSpec(
                agent_id=agent,
                interrequest=from_mean_cv(
                    mean_interrequest_for_load(loads[(agent - 1) % len(loads)]), cv
                ),
            )
            for agent in range(1, agents + 1)
        ),
    )


def _faulted(protocol, agents, seed, rate=0.3):
    """A faulted cell: line glitches, stuck lines and dropouts, plus the
    protocol's arbiter-level kind, from the first completions on."""
    plan = FaultPlan.generate(
        seed=seed,
        rate=rate,
        horizon=150.0,
        kinds=_BUS_KINDS + (ARBITER_FAULT[protocol],),
        num_agents=agents,
        start=5.0,
        line_span=get_spec(protocol).number_width(agents),
    )
    settings = replace(SETTINGS, seed=seed, fault_plan=plan, watchdog=WatchdogPolicy())
    return (_mixed_load(agents, (0.3,), 1.0), protocol, settings)


def _streamed(cell, path):
    """``cell`` streaming its arbitration events to ``path``."""
    scenario, protocol, settings = cell
    return (scenario, protocol, replace(settings, telemetry=TelemetrySettings(jsonl_path=path)))


def _event(cell):
    scenario, protocol, settings = cell
    return run_cell(copy.deepcopy(scenario), protocol, replace(settings, engine="event"))


def _read(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _assert_pack_equals_event(cells, jsonl):
    """Run ``cells`` as one pack; every lane must equal the event engine,
    and with ``jsonl`` write the event engine's event stream."""
    for cell in cells:
        assert batch_capable(*cell)[0]
    with tempfile.TemporaryDirectory() as scratch:
        paths = [os.path.join(scratch, f"{index}.jsonl") for index in range(len(cells))]
        if jsonl:
            cells = [_streamed(cell, path) for cell, path in zip(cells, paths)]
        lanes = run_lanes(copy.deepcopy(cells))
        streams = [_read(path) for path in paths] if jsonl else []
        for index, (cell, lane) in enumerate(zip(cells, lanes)):
            assert _canonical(lane) == _canonical(_event(cell))
            if jsonl:
                streamed = _read(paths[index])
                assert streams[index] and streams[index] == streamed


_loads = st.lists(st.sampled_from([0.02, 0.1, 0.3, 0.6, 0.9]), min_size=1, max_size=4)


@hyp_settings(max_examples=120, deadline=None)
@given(
    protocol=st.sampled_from(INLINE_PROTOCOLS),
    agents=st.integers(min_value=2, max_value=12),
    loads=_loads,
    cv=st.sampled_from([0.0, 1.0, 2.0]),
    period=st.sampled_from([0.0, 0.0, 0.25]),
    watchdog=st.booleans(),
    keep_records=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
    jsonl=st.booleans(),
)
def test_an_inline_pick_lane_equals_the_event_engine(
    protocol, agents, loads, cv, period, watchdog, keep_records, seed, jsonl
):
    settings = replace(
        SETTINGS,
        seed=seed,
        keep_records=keep_records,
        timing=BusTiming(clock_period=period),
        watchdog=WatchdogPolicy() if watchdog else None,
    )
    _assert_pack_equals_event([(_mixed_load(agents, loads, cv), protocol, settings)], jsonl)


@hyp_settings(max_examples=25, deadline=None)
@given(
    agents=st.integers(min_value=2, max_value=12),
    loads=_loads,
    classed=st.sampled_from(INLINE_PROTOCOLS),
    faulted=st.sampled_from(sorted(ARBITER_FAULT)),
    seed=st.integers(min_value=0, max_value=2**16),
    order=st.randoms(use_true_random=False),
    jsonl=st.booleans(),
)
def test_inline_lanes_packed_with_a_classed_and_a_faulted_lane_equal_the_event_engine(
    agents, loads, classed, faulted, seed, order, jsonl
):
    # Every inline protocol on one scenario shares its tapes; the classed
    # and faulted lanes call their kernels in the same pack.
    settings = replace(SETTINGS, seed=seed)
    scenario = _mixed_load(agents, loads, 1.0)
    cells = [(scenario, protocol, settings) for protocol in INLINE_PROTOCOLS]
    cells.append((two_class_priority_load(agents, 2.0, urgent_fraction=0.3), classed, settings))
    cells.append(_faulted(faulted, agents, seed))
    order.shuffle(cells)
    _assert_pack_equals_event(cells, jsonl)


@pytest.mark.parametrize("seed", (3, 17, 4242))
@pytest.mark.parametrize("protocol", sorted(ARBITER_FAULT))
def test_a_faulted_lane_hands_its_kernel_the_pending_mask(protocol, seed):
    # Dense plans: key-map passes under line faults, counter upsets on
    # requests issued and granted since the last kernel pass, and
    # broadcast drops, each reading the mask the lane holds.
    cells = [_faulted(protocol, agents, seed + agents, rate=0.5) for agents in (3, 8, 12)]
    _assert_pack_equals_event(cells, jsonl=False)


@pytest.mark.parametrize("protocol", ("rr-impl2", "rr-impl3"))
def test_gated_round_robin_streams_the_event_engines_passes(protocol, tmp_path):
    # Implementations 2 and 3 report the agents below the last winner
    # when there are any, and implementation 3 settles a second round
    # when there are none; the stream shows both, as the event engine's.
    telemetry = TelemetrySettings(events=True, jsonl_path=str(tmp_path / "lane.jsonl"))
    cell = (_mixed_load(6, (0.6,), 1.0), protocol, replace(SETTINGS, seed=5, telemetry=telemetry))
    (lane,) = run_lanes([copy.deepcopy(cell)])
    streamed = _read(telemetry.jsonl_path)
    event = _event(cell)
    assert _canonical(lane) == _canonical(event)
    assert _read(telemetry.jsonl_path) == streamed
    assert {arb.rounds for arb in lane.events} == ({1, 2} if protocol == "rr-impl3" else {1})
    assert any(len(arb.competitors) == 1 for arb in lane.events)

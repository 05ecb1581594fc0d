"""Cross-engine differential conformance: batch vs event-driven engine.

The lockstep batch engine (:mod:`repro.engine.batch`) promises *bit
identity* with the event-driven engine on its supported domain: same
winner sequences, same :class:`ArbitrationEvent` streams byte for byte,
same collector statistics, same floating-point timestamps.  Two engines
that must agree are a far stronger oracle than one engine that must
agree with itself — a bug in either's ordering rule, RNG consumption or
accounting shows up here as a concrete first divergence.

The suite checks the contract four ways:

- a fixed grid of every batch-capable protocol across several seeds,
  comparing every observable of the two runs exactly;
- the fault domain: seeded bus-level fault plans with watchdog
  recovery — including permanent failure (the watchdog giving up) and
  agent dropout — compared observable for observable;
- hypothesis-generated cells (agent count, per-agent load, CV — CV=0
  makes simultaneous requests the norm, stressing the tie-break rule —
  protocol, seed), both as single runs and as heterogeneous
  ``run_lanes`` packs mixing agent counts, protocols and fault plans
  in one super-batch;
- the integration seams: ``run_simulation``'s dispatch (out-of-domain
  cells run on the event engine), and the session's lane packing,
  demotion of a failed lane pack and its ``fallback_cells`` counter.

The grid runs with ``keep_order`` and ``keep_records`` set, which routes
a lane's completions through ``CompletionCollector.record_completion``.
A flag-free lane records them on its own, inlined path, so a
flag-free grid compares the two engines' canonical pickles (one round
trip, see ``test_route_equivalence.py``), collector and all, at run
lengths with a batch boundary at every completion or a warm-up and
batch ends mid-run, and on lanes the watchdog stops with a batch still
open.
"""

import pickle
from dataclasses import replace

import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from repro.bus.timing import BusTiming
from repro.bus.watchdog import WatchdogPolicy
from repro.engine.batch import batch_capable, run_lanes, run_replications
from repro.experiments.runner import SimulationSettings, run_simulation
from repro.faults.plan import BUS_LEVEL_FAULTS, FaultKind, FaultPlan
from repro.observability.events import TelemetrySettings
from repro.protocols.registry import get_spec, protocol_names
from repro.session import RunRequest, Session
from repro.workload.scenarios import equal_load

from _utils import run_results

#: Every protocol whose registry spec declares a batch kernel.
BATCH_PROTOCOLS = tuple(
    name for name in protocol_names() if get_spec(name).supports_batch
)

SEEDS = (11, 29, 47, 83, 131)

SETTINGS = SimulationSettings(
    batches=2,
    batch_size=80,
    warmup=10,
    keep_order=True,
    keep_records=True,
    telemetry=TelemetrySettings(events=True, metrics=True),
)


#: Flag-free run lengths: a boundary at every completion, and a warm-up
#: of 10 and batches of 80.
FLAG_FREE_LENGTHS = {
    "batch1-warmup0": SimulationSettings(batches=2, batch_size=1, warmup=0),
    "batch80-warmup10": SimulationSettings(batches=2, batch_size=80, warmup=10),
}


def _canonical(result):
    return pickle.dumps(pickle.loads(pickle.dumps(result)))


def _assert_identical(event_result, batch_result):
    """Every observable of the two runs must match exactly."""
    ev, bt = event_result, batch_result
    assert ev.collector.completion_order == bt.collector.completion_order
    assert [r for r in ev.collector.records] == [r for r in bt.collector.records]
    assert ev.events is not None and bt.events is not None
    assert [e.to_json() for e in ev.events] == [e.to_json() for e in bt.events]
    assert ev.elapsed == bt.elapsed
    assert ev.utilization == bt.utilization
    assert ev.collector.agent_totals == bt.collector.agent_totals
    for a, b in zip(ev.collector.batch_stats, bt.collector.batch_stats):
        assert a.count == b.count
        assert a.start_time == b.start_time
        assert a.end_time == b.end_time
        assert a.sum_waiting == b.sum_waiting
        assert a.sum_waiting_sq == b.sum_waiting_sq
        assert a.sum_queueing == b.sum_queueing
        assert a.agent_counts == b.agent_counts
    assert ev.metrics == bt.metrics


def _both_engines(scenario_factory, protocol, settings):
    event_result = run_simulation(
        scenario_factory(), protocol, replace(settings, engine="event")
    )
    batch_result = run_simulation(
        scenario_factory(), protocol, replace(settings, engine="batch")
    )
    return event_result, batch_result


def _bus_fault_plan(protocol, agents, rate, seed, horizon=100.0, **overrides):
    """A seeded bus-level plan matched to the protocol's line width."""
    spec = get_spec(protocol)
    return FaultPlan.generate(
        seed=seed,
        rate=rate,
        horizon=horizon,
        kinds=overrides.pop(
            "kinds", tuple(sorted(BUS_LEVEL_FAULTS, key=lambda kind: kind.value))
        ),
        num_agents=agents,
        line_span=spec.number_width(agents) if spec.number_width else 4,
        **overrides,
    )


def test_batch_capable_protocol_set_is_the_expected_eight():
    assert sorted(BATCH_PROTOCOLS) == [
        "fcfs", "fcfs-aincr", "fcfs-glitchable", "fixed", "rr",
        "rr-faulty-register", "rr-impl2", "rr-impl3",
    ]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("protocol", BATCH_PROTOCOLS)
def test_engines_identical_on_fixed_grid(protocol, seed):
    settings = replace(SETTINGS, seed=seed)
    ev, bt = _both_engines(lambda: equal_load(4, 2.0), protocol, settings)
    _assert_identical(ev, bt)


@pytest.mark.parametrize("keep_samples", (False, True))
@pytest.mark.parametrize("length", FLAG_FREE_LENGTHS)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("protocol", BATCH_PROTOCOLS)
def test_flag_free_lanes_pickle_as_the_event_engine(protocol, seed, length, keep_samples):
    settings = replace(FLAG_FREE_LENGTHS[length], seed=seed, keep_samples=keep_samples)
    ev, bt = _both_engines(lambda: equal_load(4, 2.0), protocol, settings)
    assert bt.collector.total_recorded == bt.collector.needed
    assert _canonical(bt) == _canonical(ev)


@pytest.mark.parametrize("protocol", BATCH_PROTOCOLS)
def test_engines_identical_under_deterministic_arrivals(protocol):
    # CV=0: every agent requests on a rigid clock, so simultaneous
    # requests (and therefore insertion-order tie-breaks) dominate.
    settings = replace(SETTINGS, seed=5)
    ev, bt = _both_engines(lambda: equal_load(6, 3.0, cv=0.0), protocol, settings)
    _assert_identical(ev, bt)


# -- fault domain -------------------------------------------------------------


@pytest.mark.parametrize("seed", (11, 47, 131))
@pytest.mark.parametrize("protocol", BATCH_PROTOCOLS)
def test_engines_identical_under_fault_injection(protocol, seed):
    # Bus-level glitches, stuck lines and dropouts with watchdog
    # recovery: every kernel's fault path, observable for observable.
    plan = _bus_fault_plan(protocol, 4, rate=0.3, seed=seed)
    settings = replace(
        SETTINGS, seed=seed, fault_plan=plan, watchdog=WatchdogPolicy()
    )
    capable, reason = batch_capable(equal_load(4, 2.0), protocol, settings)
    assert capable, reason
    ev, bt = _both_engines(lambda: equal_load(4, 2.0), protocol, settings)
    _assert_identical(ev, bt)
    assert ev.failed == bt.failed


def test_engines_identical_under_agent_dropout():
    # Dropout/rejoin point faults: the agent's pending requests stay
    # asserted, think-timer wakeups while inactive are swallowed, and
    # the rejoin draws a fresh think time — on both engines alike.
    plan = _bus_fault_plan(
        "rr", 4, rate=0.2, seed=13,
        kinds=(FaultKind.AGENT_DROPOUT,), mean_duration=5.0,
    )
    assert len(plan)
    settings = replace(SETTINGS, seed=13, fault_plan=plan, watchdog=WatchdogPolicy())
    ev, bt = _both_engines(lambda: equal_load(4, 2.0), "rr", settings)
    _assert_identical(ev, bt)


def test_engines_identical_when_watchdog_gives_up():
    # A stuck line long enough to exhaust the watchdog: both engines
    # must declare permanent failure at the same attempt with the same
    # truncated event stream.
    plan = _bus_fault_plan(
        "rr", 4, rate=2.0, seed=7, horizon=60.0,
        kinds=(FaultKind.STUCK_LINE,), mean_duration=30.0,
    )
    settings = replace(
        SETTINGS, seed=7, fault_plan=plan,
        watchdog=WatchdogPolicy(max_attempts=3),
    )
    ev, bt = _both_engines(lambda: equal_load(4, 2.0), "rr", settings)
    assert ev.failed and bt.failed
    _assert_identical(ev, bt)


@pytest.mark.parametrize("keep_samples", (False, True))
@pytest.mark.parametrize("start", (75.0, 130.0))
def test_flag_free_lane_that_gives_up_mid_batch_pickles_as_the_event_engine(
    start, keep_samples
):
    # Stuck lines from ``start`` on exhaust the watchdog in the first
    # batch (start 75) or in the second (start 130): the lane ends with
    # a batch still open.
    plan = _bus_fault_plan(
        "rr", 4, rate=2.0, seed=1, horizon=start + 60.0, start=start,
        kinds=(FaultKind.STUCK_LINE,), mean_duration=30.0,
    )
    settings = replace(
        FLAG_FREE_LENGTHS["batch80-warmup10"], seed=1, keep_samples=keep_samples,
        fault_plan=plan, watchdog=WatchdogPolicy(max_attempts=3),
    )
    ev, bt = _both_engines(lambda: equal_load(4, 2.0), "rr", settings)
    assert bt.failed
    assert 0 < bt.collector.batch_stats[-1].count < 80
    assert _canonical(bt) == _canonical(ev)


@pytest.mark.parametrize("seed", (9, 36))
def test_engines_identical_with_a_non_binary_settle_time(seed):
    # A watchdog retry is due at now + (settle + backoff), grouped as
    # the event engine's schedule() groups it.  With a settle of 0.35,
    # which no binary fraction represents, (now + settle) + backoff
    # rounds differently on some passes; these seeds hit such a pass.
    plan = _bus_fault_plan("fcfs", 3, rate=0.1, seed=seed, horizon=150.0)
    settings = replace(
        SETTINGS, seed=seed, fault_plan=plan, timing=BusTiming(arbitration_time=0.35)
    )
    ev, bt = _both_engines(lambda: equal_load(3, 0.6), "fcfs", settings)
    _assert_identical(ev, bt)


@hyp_settings(max_examples=40, deadline=None)
@given(
    agents=st.integers(min_value=2, max_value=8),
    per_agent_load=st.sampled_from([0.1, 0.35, 0.6, 0.9, 1.0]),
    cv=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    protocol=st.sampled_from(BATCH_PROTOCOLS),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_engines_identical_on_generated_cells(agents, per_agent_load, cv, protocol, seed):
    settings = SimulationSettings(
        batches=2,
        batch_size=40,
        warmup=5,
        seed=seed,
        keep_order=True,
        telemetry=TelemetrySettings(events=True),
    )
    make = lambda: equal_load(agents, per_agent_load * agents, cv=cv)  # noqa: E731
    ev, bt = _both_engines(make, protocol, settings)
    assert ev.collector.completion_order == bt.collector.completion_order
    assert [e.to_json() for e in ev.events] == [e.to_json() for e in bt.events]
    assert ev.elapsed == bt.elapsed
    assert ev.utilization == bt.utilization


def test_run_replications_matches_independent_runs():
    scenario = equal_load(5, 2.5)
    settings = replace(SETTINGS, seed=0)
    seeds = list(SEEDS)
    grouped = run_replications(scenario, "rr", settings, seeds)
    for seed, batch_result in zip(seeds, grouped):
        event_result = run_simulation(
            equal_load(5, 2.5), "rr", replace(settings, seed=seed, engine="event")
        )
        assert batch_result.seed == seed
        _assert_identical(event_result, batch_result)


# -- heterogeneous lane packs -------------------------------------------------

#: A deliberately ragged grid: n=2 beside n=32, every kernel family,
#: fault plans on alternating lanes.
_HETERO_GRID = (
    (2, 1.0, "rr"),
    (32, 8.0, "fcfs"),
    (4, 2.0, "rr-impl3"),
    (6, 3.0, "fixed"),
    (3, 1.5, "fcfs-aincr"),
    (5, 2.5, "rr-impl2"),
)


def _hetero_settings(index, agents, protocol):
    settings = replace(SETTINGS, seed=100 + index)
    if index % 2 == 0:
        settings = replace(
            settings,
            fault_plan=_bus_fault_plan(protocol, agents, rate=0.2, seed=100 + index),
            watchdog=WatchdogPolicy(),
        )
    return settings


def test_heterogeneous_lane_pack_matches_event_engine():
    cells = [
        (equal_load(agents, load), protocol, _hetero_settings(i, agents, protocol))
        for i, (agents, load, protocol) in enumerate(_HETERO_GRID)
    ]
    results = run_lanes(cells)
    assert len(results) == len(cells)
    for (i, (agents, load, protocol)), result in zip(enumerate(_HETERO_GRID), results):
        reference = run_simulation(
            equal_load(agents, load),
            protocol,
            replace(_hetero_settings(i, agents, protocol), engine="event"),
        )
        _assert_identical(reference, result)
        assert reference.failed == result.failed


def test_lane_packing_order_cannot_influence_results():
    # The same cells in reversed order produce the same per-cell
    # results: lanes share nothing, so packing is not part of identity.
    def build():
        return [
            (equal_load(agents, load), protocol, _hetero_settings(i, agents, protocol))
            for i, (agents, load, protocol) in enumerate(_HETERO_GRID)
        ]

    forward = run_lanes(build())
    backward = run_lanes(list(reversed(build())))
    for a, b in zip(forward, reversed(backward)):
        _assert_identical(a, b)


@hyp_settings(max_examples=15, deadline=None)
@given(
    lanes=st.lists(
        st.tuples(
            st.integers(min_value=2, max_value=10),
            st.sampled_from([0.3, 0.6, 1.0]),
            st.sampled_from(BATCH_PROTOCOLS),
            st.integers(min_value=0, max_value=2**16),
            st.booleans(),
        ),
        min_size=1,
        max_size=5,
    )
)
def test_lane_packs_identical_on_generated_cells(lanes):
    specs = []
    for agents, per_agent_load, protocol, seed, faulty in lanes:
        settings = SimulationSettings(
            batches=2,
            batch_size=30,
            warmup=5,
            seed=seed,
            keep_order=True,
            telemetry=TelemetrySettings(events=True),
        )
        if faulty:
            settings = replace(
                settings,
                fault_plan=_bus_fault_plan(protocol, agents, rate=0.15, seed=seed),
                watchdog=WatchdogPolicy(),
            )
        specs.append((agents, per_agent_load * agents, protocol, settings))
    results = run_lanes(
        [(equal_load(a, load), p, s) for a, load, p, s in specs]
    )
    for (agents, load, protocol, settings), result in zip(specs, results):
        reference = run_simulation(
            equal_load(agents, load), protocol, replace(settings, engine="event")
        )
        assert reference.collector.completion_order == result.collector.completion_order
        assert [e.to_json() for e in reference.events] == [
            e.to_json() for e in result.events
        ]
        assert reference.elapsed == result.elapsed
        assert reference.failed == result.failed


def test_run_lanes_rejects_shared_jsonl_path(tmp_path):
    from repro.errors import ConfigurationError

    path = str(tmp_path / "trace.jsonl")
    settings = replace(
        SETTINGS, telemetry=TelemetrySettings(events=True, jsonl_path=path)
    )
    cells = [(equal_load(4, 2.0), "rr", settings)] * 2
    with pytest.raises(ConfigurationError):
        run_lanes(cells)


def test_run_lanes_rejects_a_cell_outside_the_batch_domain():
    from repro.errors import ConfigurationError

    cells = [(equal_load(4, 2.0), "rr", SETTINGS), (equal_load(4, 2.0), "aap1", SETTINGS)]
    with pytest.raises(ConfigurationError, match="'aap1' has no batch kernel"):
        run_lanes(cells)


def test_lane_that_never_requests_raises_instead_of_spinning():
    # Agents whose think times never end leave the lane nothing to
    # dispatch: it must stop with the event engine's drained-calendar
    # error, not loop on an infinite timestamp.
    import math

    from repro.errors import SimulationError
    from repro.workload.distributions import Distribution
    from repro.workload.scenarios import AgentSpec, ScenarioSpec

    class Never(Distribution):
        mean = math.inf
        cv = 0.0

        def sample(self, rng):
            return math.inf

        def survival(self, x):
            return 1.0

    scenario = ScenarioSpec(
        name="never", agents=(AgentSpec(agent_id=1, interrequest=Never()),)
    )
    with pytest.raises(SimulationError, match="drained its event calendar"):
        run_lanes([(scenario, "rr", replace(SETTINGS, telemetry=None))])


def test_engines_identical_when_a_rejoin_refills_the_think_buffer():
    # One agent, long dropout windows: this seed's agent rejoins with
    # its block of pre-drawn think times used up, so the rejoin draws
    # the next block before its fresh think period.
    plan = _bus_fault_plan(
        "rr", 1, rate=0.05, seed=1, horizon=400.0,
        kinds=(FaultKind.AGENT_DROPOUT,), mean_duration=20.0,
    )
    settings = replace(SETTINGS, batch_size=100, seed=1, fault_plan=plan)
    ev, bt = _both_engines(lambda: equal_load(1, 0.3), "rr", settings)
    _assert_identical(ev, bt)


def test_unsupported_cells_fall_back_to_event_engine():
    # A protocol without a batch kernel: engine="batch" must degrade to
    # the event engine and produce its exact results.
    settings = SimulationSettings(batches=2, batch_size=50, warmup=5, seed=3,
                                  keep_order=True)
    capable, reason = batch_capable(equal_load(4, 2.0), "aap1", settings)
    assert not capable and "kernel" in reason
    ev = run_simulation(equal_load(4, 2.0), "aap1", replace(settings, engine="event"))
    bt = run_simulation(equal_load(4, 2.0), "aap1", replace(settings, engine="batch"))
    assert ev.collector.completion_order == bt.collector.completion_order
    assert ev.elapsed == bt.elapsed


def test_sweep_executor_groups_batch_cells():
    cells = [
        RunRequest(equal_load(4, 2.0), "rr", replace(SETTINGS, seed=seed, engine="batch"))
        for seed in SEEDS
    ]
    session = Session(jobs=1)
    outcomes = session.run_requests(cells)
    grouped = [outcome.result for outcome in outcomes]
    assert [outcome.route for outcome in outcomes] == ["lanes"] * len(SEEDS)
    assert session.stats.batch_replications == len(SEEDS)
    assert session.stats.executed == len(SEEDS)
    assert session.stats.fallback_cells == 0
    for seed, result in zip(SEEDS, grouped):
        reference = run_simulation(
            equal_load(4, 2.0), "rr", replace(SETTINGS, seed=seed, engine="event")
        )
        _assert_identical(reference, result)


def test_executor_engine_override_reaches_declared_event_cells():
    # The CLI's --engine batch lands on Session(engine=...): cells
    # explicitly declaring the event engine are rewritten and grouped,
    # and still produce the event engine's exact results.
    cells = [
        RunRequest(equal_load(4, 2.0), "rr", replace(SETTINGS, seed=seed, engine="event"))
        for seed in SEEDS
    ]
    session = Session(jobs=1, engine="batch")
    outcomes = session.run_requests(cells)
    grouped = [outcome.result for outcome in outcomes]
    assert [outcome.route for outcome in outcomes] == ["lanes"] * len(SEEDS)
    assert all(outcome.request.settings.engine == "batch" for outcome in outcomes)
    assert session.stats.batch_replications == len(SEEDS)
    for seed, result in zip(SEEDS, grouped):
        reference = run_simulation(
            equal_load(4, 2.0), "rr", replace(SETTINGS, seed=seed, engine="event")
        )
        _assert_identical(reference, result)


def test_sweep_executor_packs_fault_cells_into_lanes():
    # Fault-plan cells are in-domain now: they ride the lane-packed
    # super-batch, hit no fallback, and match the event engine exactly.
    cells = []
    for seed in (1, 2):
        plan = _bus_fault_plan("rr", 4, rate=0.3, seed=seed)
        cells.append(
            RunRequest(
                equal_load(4, 2.0),
                "rr",
                replace(SETTINGS, seed=seed, fault_plan=plan, watchdog=WatchdogPolicy()),
            )
        )
    session = Session(jobs=1)
    outcomes = session.run_requests(cells)
    results = [outcome.result for outcome in outcomes]
    assert [outcome.route for outcome in outcomes] == ["lanes", "lanes"]
    assert session.stats.batch_replications == 2
    assert session.stats.fallback_cells == 0
    for cell, result in zip(cells, results):
        reference = run_simulation(
            cell.scenario, cell.protocol, replace(cell.settings, engine="event")
        )
        _assert_identical(reference, result)


def test_sweep_executor_warns_and_counts_runtime_fallback(monkeypatch):
    # If the lane engine dies at runtime the sweep must not silently
    # absorb it: a RuntimeWarning fires, fallback_cells tallies the
    # demoted cells, and the event engine runs them with exact results.
    import repro.session.execute as execute_module

    def boom(cells):
        raise RuntimeError("lane engine exploded")

    monkeypatch.setattr(execute_module, "_default_lane_runner", boom)
    seeds = (1, 2, 3)
    cells = [
        RunRequest(equal_load(4, 2.0), "rr", replace(SETTINGS, seed=s))
        for s in seeds
    ]
    session = Session(jobs=1)
    with pytest.warns(RuntimeWarning, match="fell back to the event engine"):
        outcomes = session.run_requests(cells)
    results = [outcome.result for outcome in outcomes]
    assert [outcome.route for outcome in outcomes] == ["direct"] * len(seeds)
    assert all(outcome.request.settings.engine == "event" for outcome in outcomes)
    assert session.stats.fallback_cells == len(seeds)
    assert session.stats.batch_replications == 0
    assert session.stats.executed == len(seeds)
    for s, result in zip(seeds, results):
        reference = run_simulation(
            equal_load(4, 2.0), "rr", replace(SETTINGS, seed=s, engine="event")
        )
        _assert_identical(reference, result)


def test_executor_rejects_unknown_engine():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        Session(engine="warp")


def test_sweep_executor_leaves_declared_event_cells_alone():
    # An explicit engine="event" declaration is respected: the cell
    # never enters a lane pack (and is not a "fallback" — it was never
    # batch-eligible to begin with).
    cells = [
        RunRequest(equal_load(4, 2.0), "rr", replace(SETTINGS, seed=s, engine="event"))
        for s in (1, 2)
    ]
    session = Session(jobs=1)
    outcomes = session.run_requests(cells)
    assert [outcome.route for outcome in outcomes] == ["direct", "direct"]
    assert session.stats.batch_replications == 0
    assert session.stats.executed == 2
    assert session.stats.fallback_cells == 0


# -- arrival-layer cells ------------------------------------------------------


def _mmpp_closed(num_agents=4, load=2.0):
    """Closed-loop agents with MMPP think times: stateful but in-domain."""
    from repro.workload.arrivals import MarkovModulatedPoisson
    from repro.workload.scenarios import (
        AgentSpec,
        ScenarioSpec,
        mean_interrequest_for_load,
    )

    mean = mean_interrequest_for_load(load / num_agents)
    return ScenarioSpec(
        name=f"mmpp-diff-n{num_agents}",
        agents=tuple(
            AgentSpec(
                agent_id=i,
                interrequest=MarkovModulatedPoisson(
                    (1.6 / mean, 0.4 / mean), (0.05, 0.05)
                ),
            )
            for i in range(1, num_agents + 1)
        ),
    )


def _open_loop_r2():
    """Open-loop Poisson agents with two outstanding requests each."""
    from repro.workload.scenarios import open_loop_equal_load

    return open_loop_equal_load(4, 0.8, max_outstanding=2)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("protocol", ("rr", "fcfs-aincr"))
def test_engines_identical_on_closed_loop_mmpp(protocol, seed):
    # Stateful think-time distributions stay inside the lane domain:
    # the kernels deep-copy scenarios per replication, so the modulating
    # phase evolves identically on both engines.
    settings = replace(SETTINGS, seed=seed)
    capable, reason = batch_capable(_mmpp_closed(), protocol, settings)
    assert capable, reason
    ev, bt = _both_engines(_mmpp_closed, protocol, settings)
    _assert_identical(ev, bt)


def test_open_loop_domain_is_single_outstanding(recwarn):
    # An open-loop agent with one request outstanding blocks generation
    # at issue and resumes at completion — the closed-loop cycle — so
    # r=1 runs on lanes byte-equal to the event engine.  r=2 stays
    # statically out of domain: the check names the agent, and
    # engine="batch" silently routes to the event engine with no
    # RuntimeWarning (nothing was demoted).
    import pickle

    from repro.workload.scenarios import open_loop_equal_load

    settings = replace(SETTINGS, seed=3)
    capable, reason = batch_capable(
        open_loop_equal_load(4, 0.8, max_outstanding=1), "fcfs", settings
    )
    assert capable, reason
    ev, bt = _both_engines(
        lambda: open_loop_equal_load(4, 0.8, max_outstanding=1), "fcfs", settings
    )
    _assert_identical(ev, bt)
    assert pickle.dumps(ev) == pickle.dumps(bt)

    capable, reason = batch_capable(_open_loop_r2(), "fcfs", settings)
    assert not capable and "max_outstanding > 1" in reason
    ev, bt = _both_engines(_open_loop_r2, "fcfs", settings)
    _assert_identical(ev, bt)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_priority_class_cells_run_on_lanes(recwarn):
    # Two-class priority cells are in-domain (§2.4: one class bit above
    # each protocol's number): engine="batch" really takes the lane
    # route — no RuntimeWarning, no silent fallback — and every
    # observable, the urgent flags of the records included, matches the
    # event engine on every lane protocol.
    import pickle

    from repro.workload.arrivals import two_class_priority_load

    settings = replace(SETTINGS, seed=3)
    scenario = two_class_priority_load(4, 2.0, urgent_fraction=0.25)
    for protocol in BATCH_PROTOCOLS:
        capable, reason = batch_capable(scenario, protocol, settings)
        assert capable, reason
        ev, bt = _both_engines(
            lambda: two_class_priority_load(4, 2.0, urgent_fraction=0.25),
            protocol,
            settings,
        )
        _assert_identical(ev, bt)
        assert pickle.dumps(ev) == pickle.dumps(bt)
        assert {record.priority for record in bt.collector.records} == {False, True}
        assert {"wait.class.urgent", "wait.class.normal"} <= set(bt.metrics.histograms())
        (lane,) = run_lanes([(scenario, protocol, settings)])
        assert pickle.dumps(lane) == pickle.dumps(ev)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_mixed_sweep_counts_only_in_domain_cells_as_fallback(monkeypatch):
    # A grid mixing open-loop r=2 (statically out-of-domain) and
    # closed-loop MMPP (in-domain) cells, with the lane engine dying at
    # runtime: the warning fires, fallback_cells counts ONLY the demoted
    # in-domain cells, and every cell still matches the event engine
    # exactly.
    import repro.session.execute as execute_module

    def boom(cells):
        raise RuntimeError("lane engine exploded")

    monkeypatch.setattr(execute_module, "_default_lane_runner", boom)
    in_domain = [
        RunRequest(_mmpp_closed(), "rr", replace(SETTINGS, seed=s)) for s in (1, 2)
    ]
    out_of_domain = [
        RunRequest(_open_loop_r2(), "fcfs", replace(SETTINGS, seed=s))
        for s in (1, 2, 3)
    ]
    session = Session(jobs=1)
    with pytest.warns(RuntimeWarning, match="fell back to the event engine"):
        results = run_results(session, in_domain + out_of_domain)
    assert session.stats.fallback_cells == len(in_domain)
    assert session.stats.executed == len(in_domain) + len(out_of_domain)
    for cell, result in zip(in_domain + out_of_domain, results):
        reference = run_simulation(
            cell.scenario, cell.protocol, replace(cell.settings, engine="event")
        )
        _assert_identical(reference, result)


@pytest.mark.parametrize("protocol", BATCH_PROTOCOLS)
def test_spec_flag_agrees_with_kernel_table(protocol):
    from repro.engine.batch import _KERNELS

    assert protocol in _KERNELS
    assert set(_KERNELS) == set(BATCH_PROTOCOLS)

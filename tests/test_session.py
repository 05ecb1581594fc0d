"""Tests for the session layer: planner, executor, facade, fallback.

The session package is the single orchestration path every entry point
shares — :func:`repro.experiments.runner.run_simulation`, the
:class:`Session`, the experiment grids and the CLI all route through
``plan_runs`` → ``execute_plan``.  These tests pin the decision layer
directly (routes, engine overrides, cache provenance), the degradation
contract (one ``RuntimeWarning`` wording for every batch→event
fallback, tallied in ``fallback_cells``), the :class:`Session` facade
(submission order, within-gather dedup), and the CLI's clean rejection
of invalid engine/scale selectors.
"""

import json
from dataclasses import replace

import pytest

import repro.session.single as single_module
from repro.cli import main
from repro.bus.timing import BusTiming
from repro.errors import ConfigurationError
from repro.experiments.cache import ResultCache
from repro.experiments.robustness import fault_plan_for
from repro.experiments.runner import SimulationSettings, run_simulation
from repro.experiments.scale import Scale
from repro.observability import TelemetrySettings
from repro.session import (
    RunRequest,
    Session,
    batch_fallback_message,
    execute_plan,
    normalize_engine,
    plan_runs,
)
from repro.session.control import RunControl
from repro.session.outcome import (
    ROUTE_CACHE,
    ROUTE_DEDUP,
    ROUTE_DIRECT,
    ROUTE_LANES,
    SessionStats,
)
from repro.workload.arrivals import bursty_equal_load, two_class_priority_load
from repro.workload.distributions import Distribution
from repro.workload.scenarios import AgentSpec, ScenarioSpec, equal_load, open_loop_equal_load

SETTINGS = SimulationSettings(batches=2, batch_size=50, warmup=5, seed=3)


def _fingerprint(result):
    return (
        result.elapsed,
        result.utilization,
        result.system_throughput().mean,
        result.mean_waiting().mean,
    )


class TestNormalizeEngine:
    def test_valid_engines_pass_through(self):
        assert normalize_engine("event") == "event"
        assert normalize_engine("batch") == "batch"
        assert normalize_engine(None) is None

    def test_unknown_engine_rejected_with_vocabulary(self):
        with pytest.raises(ConfigurationError, match="choose 'event' or 'batch'"):
            normalize_engine("bogus")

    def test_none_rejected_when_required(self):
        with pytest.raises(ConfigurationError, match="an engine is required"):
            normalize_engine(None, allow_none=False)

    def test_settings_validate_engine_at_construction(self):
        with pytest.raises(ConfigurationError, match="unknown engine"):
            SimulationSettings(engine="warp")


class TestPlanRuns:
    def test_batch_capable_cells_route_to_lanes(self):
        plan = plan_runs([RunRequest(equal_load(4, 2.0), "rr", SETTINGS)])
        (run,) = plan.runs
        assert run.route == ROUTE_LANES
        assert run.family is not None
        assert run.index == 0

    def test_event_engine_cells_route_direct(self):
        request = RunRequest(
            equal_load(4, 2.0), "rr", replace(SETTINGS, engine="event")
        )
        plan = plan_runs([request])
        assert plan.runs[0].route == ROUTE_DIRECT

    def test_out_of_domain_cells_route_direct(self):
        # Open-loop scenarios are outside the batch domain: no lane pack.
        request = RunRequest(open_loop_equal_load(4, 0.5), "fcfs", SETTINGS)
        plan = plan_runs([request])
        assert plan.runs[0].route == ROUTE_DIRECT

    def test_jsonl_telemetry_excluded_from_lane_packs(self, tmp_path):
        telemetry = TelemetrySettings(jsonl_path=str(tmp_path / "trace.jsonl"))
        request = RunRequest(
            equal_load(4, 2.0), "rr", replace(SETTINGS, telemetry=telemetry)
        )
        plan = plan_runs([request])
        assert plan.runs[0].route == ROUTE_DIRECT

    def test_direct_runs_carry_their_refusal_reason(self):
        # One N of the event-heavy benchmark grid: open-loop r=1, bursty
        # MMPP, two-class priority, synchronous-bus and fault-model
        # cells are all lanes.  A protocol that still has no kernel
        # runs direct and says why.
        scale = Scale("plan", SETTINGS.batches, SETTINGS.batch_size, SETTINGS.warmup)
        clocked = replace(SETTINGS, timing=BusTiming(clock_period=0.25))
        requests = []
        for protocol in ("rr", "fcfs", "fcfs-aincr"):
            requests += [
                RunRequest(open_loop_equal_load(10, 0.9, max_outstanding=1), protocol, SETTINGS),
                RunRequest(bursty_equal_load(10, 0.9), protocol, SETTINGS),
                RunRequest(
                    two_class_priority_load(10, 2.0, urgent_fraction=0.2), protocol, SETTINGS
                ),
                RunRequest(equal_load(10, 2.0), protocol, clocked),
            ]
        for protocol in ("rr-faulty-register", "fcfs-glitchable"):
            plan = fault_plan_for(protocol, 0.01, scale, SETTINGS.seed)
            requests.append(
                RunRequest(equal_load(10, 2.0), protocol, replace(SETTINGS, fault_plan=plan))
            )
        plan = plan_runs(requests)
        assert len(plan.lane_runs) == 14
        assert not plan.direct_runs
        assert sum(run.request.settings.timing.synchronous for run in plan.lane_runs) == 3
        classed = [
            run
            for run in plan.lane_runs
            if any(agent.priority_fraction > 0.0 for agent in run.request.scenario.agents)
        ]
        assert len(classed) == 3
        assert sum(run.request.settings.fault_plan is not None for run in plan.lane_runs) == 2
        assert all(run.reason is None for run in plan.lane_runs)
        rotating = fault_plan_for("rotating-rr", 0.01, scale, SETTINGS.seed)
        plan = plan_runs(
            [RunRequest(equal_load(10, 2.0), "rotating-rr", replace(SETTINGS, fault_plan=rotating))]
        )
        assert [run.reason for run in plan.direct_runs] == [
            "protocol 'rotating-rr' has no batch kernel",
        ]

    def test_planner_names_engine_and_jsonl_refusals(self, tmp_path):
        telemetry = TelemetrySettings(jsonl_path=str(tmp_path / "trace.jsonl"))
        plan = plan_runs(
            [
                RunRequest(equal_load(4, 2.0), "rr", replace(SETTINGS, engine="event")),
                RunRequest(equal_load(4, 2.0), "rr", replace(SETTINGS, telemetry=telemetry)),
            ]
        )
        assert [run.reason for run in plan.runs] == [
            "engine 'event' selected",
            "JSONL telemetry",
        ]

    def test_engine_override_rewrites_every_request(self):
        plan = plan_runs(
            [RunRequest(equal_load(4, 2.0), "rr", SETTINGS)], engine="event"
        )
        (run,) = plan.runs
        assert run.request.settings.engine == "event"
        assert run.route == ROUTE_DIRECT

    def test_override_is_validated(self):
        with pytest.raises(ConfigurationError, match="unknown engine"):
            plan_runs([], engine="bogus")

    def test_default_settings_filled_at_plan_time(self):
        plan = plan_runs([RunRequest(equal_load(2, 1.0), "rr")])
        assert plan.runs[0].request.settings is not None

    def test_cache_hits_planned_as_cache_route(self, tmp_path):
        cache = ResultCache(tmp_path)
        request = RunRequest(equal_load(4, 2.0), "rr", SETTINGS)
        cache.put(request.cache_key(), run_simulation(*request.as_cell()))
        plan = plan_runs([request], cache=cache)
        (run,) = plan.runs
        assert run.route == ROUTE_CACHE
        assert run.key == request.cache_key()
        assert run.cached is not None

    def test_routes_partition_the_batch(self, tmp_path):
        cache = ResultCache(tmp_path)
        cached = RunRequest(equal_load(4, 2.0), "rr", SETTINGS)
        cache.put(cached.cache_key(), run_simulation(*cached.as_cell()))
        requests = [
            cached,
            RunRequest(equal_load(4, 2.0), "fcfs", SETTINGS),
            RunRequest(
                equal_load(4, 2.0), "rr", replace(SETTINGS, seed=9, engine="event")
            ),
        ]
        plan = plan_runs(requests, cache=cache)
        assert [run.route for run in plan.runs] == [
            ROUTE_CACHE,
            ROUTE_LANES,
            ROUTE_DIRECT,
        ]
        assert len(plan.cached_runs) == 1
        assert len(plan.lane_runs) == 1
        assert len(plan.direct_runs) == 1


class TestExecutePlan:
    def test_outcomes_carry_route_and_provenance(self, tmp_path):
        cache = ResultCache(tmp_path)
        requests = [
            RunRequest(equal_load(4, 2.0), "rr", SETTINGS),
            RunRequest(equal_load(4, 1.0), "rr", replace(SETTINGS, engine="event")),
            # Epoch 6: the first cell declared for the other engine has
            # the first cell's key, so it dedups instead of executing.
            RunRequest(equal_load(4, 2.0), "rr", replace(SETTINGS, engine="event")),
        ]
        stats = SessionStats()
        outcomes = execute_plan(plan_runs(requests, cache=cache), cache=cache, stats=stats)
        assert [outcome.route for outcome in outcomes] == [
            ROUTE_LANES, ROUTE_DIRECT, ROUTE_DEDUP
        ]
        for outcome in outcomes[:2]:
            assert outcome.stored
            assert outcome.cache_key is not None
            assert not outcome.cached
        assert outcomes[2].cache_key == outcomes[0].cache_key
        assert stats.executed == 2
        assert stats.deduplicated == 1
        assert len(cache) == 2

    def test_cached_runs_replay_without_execution(self, tmp_path):
        cache = ResultCache(tmp_path)
        request = RunRequest(equal_load(4, 2.0), "rr", SETTINGS)
        fresh = run_simulation(*request.as_cell())
        cache.put(request.cache_key(), fresh)
        stats = SessionStats()
        outcomes = execute_plan(plan_runs([request], cache=cache), cache=cache, stats=stats)
        (outcome,) = outcomes
        assert outcome.route == ROUTE_CACHE
        assert outcome.cached
        assert not outcome.stored
        assert _fingerprint(outcome.result) == _fingerprint(fresh)
        assert stats.cache_hits == 1
        assert stats.executed == 0

    def test_lane_runtime_failure_demotes_to_direct_loudly(self):
        def broken_lanes(cells):
            raise RuntimeError("kernel exploded")

        requests = [
            RunRequest(equal_load(4, 2.0), "rr", SETTINGS),
            RunRequest(equal_load(4, 2.0), "fcfs", SETTINGS),
        ]
        stats = SessionStats()
        with pytest.warns(RuntimeWarning, match="fell back to the event engine"):
            outcomes = execute_plan(
                plan_runs(requests), stats=stats, lane_runner=broken_lanes
            )
        assert [outcome.route for outcome in outcomes] == [ROUTE_DIRECT] * 2
        assert all(outcome.fallback for outcome in outcomes)
        assert stats.fallback_cells == 2
        assert stats.executed == 2
        # The demoted cells still produce the event engine's numbers.
        for request, outcome in zip(requests, outcomes):
            event = run_simulation(
                request.scenario,
                request.protocol,
                replace(request.settings, engine="event"),
            )
            assert _fingerprint(outcome.result) == _fingerprint(event)

    def test_fallback_message_wording_is_shared(self):
        message = batch_fallback_message(3, ValueError("boom"))
        assert message == (
            "3 batch-capable cell(s) fell back to the event engine (ValueError: boom)"
        )


class TestSingleRunFallback:
    def test_runtime_batch_failure_warns_once_and_matches_event(self, monkeypatch):
        def broken_batch(scenario, protocol, settings):
            raise RuntimeError("lane kernel diverged")

        monkeypatch.setattr(single_module, "run_simulation_batch", broken_batch)
        before = single_module.stats.fallback_cells
        scenario = equal_load(4, 2.0)
        with pytest.warns(RuntimeWarning, match="fell back to the event engine"):
            degraded = run_simulation(scenario, "rr", SETTINGS)
        assert single_module.stats.fallback_cells == before + 1
        event = run_simulation(scenario, "rr", replace(SETTINGS, engine="event"))
        assert _fingerprint(degraded) == _fingerprint(event)

    def test_statically_out_of_domain_cells_fall_through_silently(self, recwarn):
        # Open-loop cells were never promised the batch engine: no warning.
        run_simulation(open_loop_equal_load(4, 0.5), "fcfs", SETTINGS)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_omitted_settings_run_the_defaults(self):
        scenario = equal_load(2, 1.0)
        implicit = run_simulation(scenario, "rr")
        assert _fingerprint(implicit) == _fingerprint(
            run_simulation(scenario, "rr", SimulationSettings())
        )


class TestSessionFacade:
    def test_submit_gather_preserves_submission_order(self):
        session = Session(jobs=1)
        session.submit(equal_load(4, 2.0), "rr", SETTINGS, tag="first")
        session.submit(equal_load(4, 2.0), "fcfs", SETTINGS, tag="second")
        outcomes = session.gather()
        assert [outcome.request.tag for outcome in outcomes] == ["first", "second"]
        assert session.gather() == []  # queue drained

    def test_gather_matches_direct_run_simulation(self):
        session = Session(jobs=1)
        scenario = equal_load(6, 1.5)
        session.submit(scenario, "rr", SETTINGS)
        (outcome,) = session.gather()
        assert _fingerprint(outcome.result) == _fingerprint(
            run_simulation(scenario, "rr", SETTINGS)
        )

    def test_identical_requests_deduplicate_within_a_gather(self):
        session = Session(jobs=1)
        scenario = equal_load(4, 2.0)
        outcomes = session.run_requests(
            [
                RunRequest(scenario, "rr", SETTINGS),
                RunRequest(scenario, "fcfs", SETTINGS),
                RunRequest(scenario, "rr", SETTINGS),
            ]
        )
        assert [outcome.route for outcome in outcomes] == [
            ROUTE_LANES,
            ROUTE_LANES,
            ROUTE_DEDUP,
        ]
        assert session.stats.executed == 2
        assert session.stats.deduplicated == 1
        assert _fingerprint(outcomes[0].result) == _fingerprint(outcomes[2].result)
        assert outcomes[2].cache_key == outcomes[0].cache_key

    def test_dedup_ignores_engine_differences(self):
        # Epoch 6: the engine is not part of a cell's identity, so the
        # same cell declared for both engines runs once per gather.
        session = Session(jobs=1)
        scenario = equal_load(4, 2.0)
        outcomes = session.run_requests(
            [
                RunRequest(scenario, "rr", SETTINGS),
                RunRequest(scenario, "rr", replace(SETTINGS, engine="event")),
            ]
        )
        assert outcomes[1].route == ROUTE_DEDUP
        assert session.stats.deduplicated == 1

    def test_submit_request_queues_wire_requests(self):
        session = Session(jobs=1)
        request = RunRequest.from_json(
            RunRequest(equal_load(4, 2.0), "rr", SETTINGS).to_json()
        )
        session.submit_request(request)
        (outcome,) = session.gather()
        assert outcome.request.protocol == "rr"

    def test_session_engine_override_applies_to_requests(self):
        session = Session(jobs=1, engine="event")
        outcomes = session.run_requests([RunRequest(equal_load(4, 2.0), "rr", SETTINGS)])
        assert outcomes[0].request.settings.engine == "event"
        assert outcomes[0].route == ROUTE_DIRECT

    def test_session_backs_experiment_grids(self):
        # A grid run through a session matches the same requests run
        # through the session directly.
        from repro.experiments.spec import CellSpec, run_cells

        session = Session(jobs=1)
        cells = [
            CellSpec(key="rr", scenario=equal_load(4, 2.0), protocol="rr", settings=SETTINGS),
            CellSpec(key="fcfs", scenario=equal_load(4, 2.0), protocol="fcfs", settings=SETTINGS),
        ]
        results = run_cells(cells, executor=session)
        direct = [
            outcome.result
            for outcome in Session(jobs=1).run_requests([cell.run_request() for cell in cells])
        ]
        for mine, theirs in zip(results, direct):
            assert _fingerprint(mine) == _fingerprint(theirs)

    def test_session_reuses_a_supplied_executor(self):
        class StubExecutor:
            def __init__(self):
                self.stats = SessionStats()
                self.calls = []

            def run_requests(self, requests, control=None):
                self.calls.append((list(requests), control))
                return ["stub-outcome"] * len(requests)

        executor = StubExecutor()
        session = Session(executor=executor)
        assert session.executor is executor
        assert session.stats is executor.stats
        request = RunRequest(equal_load(4, 2.0), "rr", SETTINGS)
        control = RunControl()
        assert session.run_requests([request], control=control) == ["stub-outcome"]
        # Every run is delegated with its control, even a bare one.
        session.submit_request(request)
        assert session.gather() == ["stub-outcome"]
        assert executor.calls == [([request], control), ([request], None)]

    def test_session_repr_names_its_backend(self):
        session = Session(jobs=2)
        session.submit(equal_load(4, 2.0), "rr", SETTINGS)
        assert repr(session) == "Session(jobs=2, pending=1, executed=0, hits=0)"
        delegating = Session(executor=Session(jobs=1))
        assert repr(delegating) == (
            "Session(executor=Session(jobs=1, pending=0, executed=0, hits=0), "
            "pending=0, executed=0, hits=0)"
        )


class _Uniform(Distribution):
    """A distribution outside the wire format's vocabulary."""

    mean = 1.0
    cv = 0.5

    def sample(self, rng):
        return rng.uniform(0.0, 2.0)

    def survival(self, x):
        return min(1.0, max(0.0, 1.0 - x / 2.0))


class TestWireFormatErrors:
    def test_unknown_distribution_cannot_be_serialised(self):
        scenario = ScenarioSpec(
            name="odd", agents=(AgentSpec(agent_id=1, interrequest=_Uniform()),)
        )
        with pytest.raises(ConfigurationError, match="cannot serialise distribution type '_Uniform'"):
            RunRequest(scenario, "rr", SETTINGS).to_json()

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda doc: doc.update(format=999), "unsupported RunRequest format 999"),
            (
                lambda doc: doc["settings"].update(turbo=True),
                r"unknown settings field\(s\) in request: turbo",
            ),
            (
                lambda doc: doc["scenario"]["agents"][0]["interrequest"].update(type="weibull"),
                "unknown distribution type 'weibull'",
            ),
        ],
    )
    def test_bad_documents_are_rejected(self, mutate, message):
        doc = RunRequest(equal_load(2, 1.0), "rr", SETTINGS).to_dict()
        mutate(doc)
        with pytest.raises(ConfigurationError, match=message):
            RunRequest.from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "payload, message",
        [("{not json", "malformed RunRequest JSON"), ("[1, 2]", "must be an object, got list")],
    )
    def test_bad_json_is_rejected(self, payload, message):
        with pytest.raises(ConfigurationError, match=message):
            RunRequest.from_json(payload)


class TestCliValidation:
    def test_invalid_engine_flag_exits_with_usage(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["--engine", "warp", "protocols"])
        assert excinfo.value.code == 2

    def test_invalid_repro_scale_exits_cleanly(self, monkeypatch, capsys):
        # Regression: an invalid $REPRO_SCALE used to escape as a raw
        # traceback because the scale was resolved outside the handler.
        monkeypatch.setenv("REPRO_SCALE", "bogus")
        assert main(["protocols"]) == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "bogus" in err
        # An explicit --scale still wins over the bad environment.
        assert main(["--scale", "smoke", "protocols"]) == 0

    def test_negative_fault_rates_exit_with_usage(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["faults", "--rates", "-1", "0.5"])
        assert excinfo.value.code == 2
        assert "--rates must be > 0" in capsys.readouterr().err

"""Stateful think-time draws agree on every route.

Both engines draw an agent's think times on demand, in blocks that start
small and double up to ``_THINK_BLOCK`` (``repro.bus.agent``).  The
blocks never change a variate, but they decide how far a stateful
distribution has advanced when a run stops, and that state (an MMPP
phase, a trace cursor) is pickled with the result's scenario.  So the
event engine, a lane, the per-cell ``run_request`` path and a cache
replay must agree on the whole pickle for a stateful scenario, not only
on the statistics.  Agents sharing one stateful object draw from it in
turn, block by block; they keep the fixed block, and their outputs stay
pinned to the digest the fixed-block engines produced.

The draw-count test at the end is the point of the change: a short cell
draws about what it uses instead of 64 variates per agent up front.
"""

import copy
import hashlib
import json
import pickle
from dataclasses import replace

import pytest

from repro.bus.agent import _FIRST_THINK_BLOCK, _THINK_BLOCK, first_think_blocks
from repro.engine.batch import run_lanes, run_simulation_batch
from repro.errors import ConfigurationError
from repro.experiments.cache import ResultCache
from repro.experiments.runner import SimulationSettings
from repro.observability import TelemetrySettings
from repro.session import RunRequest, Session, run_cell
from repro.session.single import run_request
from repro.workload.arrivals import MarkovModulatedPoisson
from repro.workload.distributions import Distribution, Exponential
from repro.workload.scenarios import AgentSpec, ScenarioSpec, equal_load, fresh_scenario
from repro.workload.traces import TraceDistribution, synthesize_program_trace

#: Short cells: each agent uses fewer think times than one full block.
SETTINGS = SimulationSettings(batches=2, batch_size=100, warmup=20, seed=2024)

PROTOCOLS = ("rr", "fcfs")


def _mmpp():
    return MarkovModulatedPoisson(rates=(0.4, 0.05), switch_rates=(0.05, 0.1))


def _two_rate_mmpp():
    agents = tuple(AgentSpec(i, _mmpp()) for i in range(1, 7))
    return ScenarioSpec("two-rate-mmpp", agents)


def _cycling_trace():
    agents = tuple(
        AgentSpec(i, TraceDistribution(synthesize_program_trace(50, seed=i), offset=3 * i))
        for i in range(1, 5)
    )
    return ScenarioSpec("cycling-trace", agents)


def _shared_mmpp():
    shared = _mmpp()
    agents = (AgentSpec(1, shared), AgentSpec(2, shared)) + tuple(
        AgentSpec(i, _mmpp()) for i in (3, 4)
    )
    return ScenarioSpec("shared-mmpp", agents)


def _exhausting_trace():
    # Agent 2's trace runs out part way through the run.
    agents = (
        AgentSpec(1, TraceDistribution(synthesize_program_trace(400, seed=1), cycle=False)),
        AgentSpec(2, TraceDistribution(synthesize_program_trace(40, seed=2), cycle=False)),
        AgentSpec(3, TraceDistribution(synthesize_program_trace(400, seed=3), cycle=False)),
    )
    return ScenarioSpec("exhausting-trace", agents)


SCENARIOS = {
    "two-rate-mmpp": _two_rate_mmpp,
    "cycling-trace": _cycling_trace,
    "shared-mmpp": _shared_mmpp,
}

#: ``outputs_sha256`` (perfbench's digest of per-result lines) of the
#: shared-MMPP cells, as the engines that pre-drew 64 think times for
#: every agent produced them.
SHARED_MMPP_OUTPUTS_SHA256 = "5e64a1fd50358879259af0492572899cd20f0f0c23f1eef0a437a9f642bed809"


def _outputs_sha256(results):
    """perfbench's ``outputs_sha256``: agent totals, completions and each
    batch's W and throughput, one JSON line per result."""
    digest = hashlib.sha256()
    for result in results:
        batches = result.collector.completed_batches()
        record = [
            result.protocol,
            result.scenario.name,
            result.seed,
            sorted(result.collector.agent_totals.items()),
            result.collector.total_recorded,
            [repr(batch.mean_waiting) for batch in batches],
            [repr(batch.throughput()) for batch in batches],
        ]
        digest.update(json.dumps(record, separators=(",", ":")).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _without_scenario(result):
    """The result's pickle with its scenario left out."""
    stripped = copy.copy(result)
    stripped.scenario = None
    return pickle.dumps(stripped)


def _event(request):
    return run_cell(
        copy.deepcopy(request.scenario),
        request.protocol,
        replace(request.settings, engine="event"),
    )


def _lanes(request):
    (result,) = run_lanes([(request.scenario, request.protocol, request.settings)])
    return result


def _cache_replay(request, directory):
    Session(jobs=1, cache=ResultCache(directory)).run_requests([request])
    (outcome,) = Session(jobs=1, cache=ResultCache(directory)).run_requests([request])
    assert outcome.route == "cache"
    return outcome.result


def _routes(request, directory):
    return {
        "lanes": _lanes(request),
        "direct": run_request(request),
        "cache": _cache_replay(request, directory),
    }


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_route_pickles_the_event_engine_result(name, protocol, tmp_path):
    scenario = SCENARIOS[name]()
    before = pickle.dumps(scenario)
    request = RunRequest(scenario, protocol, SETTINGS)
    expected = pickle.dumps(_event(request))
    for route, result in _routes(request, tmp_path).items():
        assert pickle.dumps(result) == expected, f"{route} differs from the event engine"
    # Every route ran on its own copy of the stateful distributions.
    assert pickle.dumps(scenario) == before


@pytest.mark.parametrize("build", [_two_rate_mmpp, _cycling_trace])
def test_only_the_post_run_state_tells_the_block_sizes(build, monkeypatch):
    # The pickle comparison above bites only if these cells' post-run
    # state depends on the blocks.  With the fixed 64-variate block the
    # event engine gives the same outputs and a different state.
    request = RunRequest(build(), "rr", SETTINGS)
    on_demand = _event(request)
    monkeypatch.setattr(
        "repro.bus.model.first_think_blocks",
        lambda agents: {spec.agent_id: _THINK_BLOCK for spec in agents},
    )
    fixed = _event(request)
    assert _outputs_sha256([fixed]) == _outputs_sha256([on_demand])
    assert _without_scenario(fixed) == _without_scenario(on_demand)
    assert pickle.dumps(fixed.scenario) != pickle.dumps(on_demand.scenario)


def test_shared_stateful_agents_keep_the_fixed_block():
    scenario = _shared_mmpp()
    blocks = first_think_blocks(scenario.agents)
    assert blocks == {
        1: _THINK_BLOCK,
        2: _THINK_BLOCK,
        3: _FIRST_THINK_BLOCK,
        4: _FIRST_THINK_BLOCK,
    }
    results = []
    for protocol in PROTOCOLS:
        request = RunRequest(scenario, protocol, SETTINGS)
        event = _event(request)
        assert _outputs_sha256([_lanes(request)]) == _outputs_sha256([event])
        results.append(event)
    assert _outputs_sha256(results) == SHARED_MMPP_OUTPUTS_SHA256


def test_sharing_survives_the_private_copy():
    scenario = _shared_mmpp()
    fresh = fresh_scenario(scenario)
    one, two, three, four = (agent.interrequest for agent in fresh.agents)
    assert one is two and one is not scenario.agents[0].interrequest
    assert three is not four
    plain = equal_load(4, 1.0)
    assert fresh_scenario(plain) is plain


def test_a_trace_that_runs_out_fails_on_the_same_draw(tmp_path):
    # Both engines stream their arbitration events to JSONL up to the
    # draw that fails, so equal files mean the same failing draw.
    runs = {"event": run_cell, "batch": run_simulation_batch}
    traces = {}
    errors = {}
    for engine, run in runs.items():
        path = tmp_path / f"{engine}.jsonl"
        settings = replace(
            SETTINGS, engine=engine, telemetry=TelemetrySettings(jsonl_path=str(path))
        )
        with pytest.raises(ConfigurationError) as raised:
            run(fresh_scenario(_exhausting_trace()), "rr", settings)
        errors[engine] = str(raised.value)
        traces[engine] = path.read_text()
    assert errors["event"] == errors["batch"]
    assert "exhausted" in errors["event"]
    assert traces["event"] and traces["event"] == traces["batch"]
    request = RunRequest(_exhausting_trace(), "rr", SETTINGS)
    with pytest.raises(ConfigurationError, match="exhausted"):
        _lanes(request)
    with pytest.raises(ConfigurationError, match="exhausted"):
        run_request(replace(request, settings=replace(SETTINGS, engine="event")))


class _CountingDistribution(Distribution):
    """An exponential that counts every variate drawn from it."""

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


@pytest.mark.parametrize("engine", ["event", "batch"])
def test_a_short_cell_draws_about_what_it_uses(engine):
    # N = 64 at load 2: every agent uses ~17 think times in a
    # 1,050-completion cell, far fewer than one 64-variate block.
    agents = 64
    mean = equal_load(agents, 2.0).agents[0].interrequest.mean
    counting = _CountingDistribution(mean)
    scenario = ScenarioSpec(
        "counted", tuple(AgentSpec(i, counting) for i in range(1, agents + 1))
    )
    settings = SimulationSettings(batches=2, batch_size=500, warmup=50, seed=3, engine=engine)
    result = run_cell(scenario, "rr", settings)
    completions = result.collector.total_recorded
    assert completions == 1050
    # A closed-loop agent draws one think time to start and one per
    # completion, so the run uses completions + N of them.
    requests = completions + agents
    assert counting.draws < 2 * requests + 8 * agents

"""Every route returns the same bytes for the same request.

A :class:`~repro.session.request.RunRequest` can reach a
:class:`~repro.stats.summary.RunResult` along many routes: the event
engine, the lane-packed batch engine, the per-cell ``run_cell`` path, a
replay from the content-addressed cache, a duplicate answered inside one
``Session`` gather, a job on the arbitration service, and a request that
crossed the JSON wire first.  The hit path adds three more: a request
decoded twice (the second decode comes from the intern table), a second
read of one ``ResultCache`` (served from its hot tier), and an all-hit
service job answered inside ``submit``.  The orchestration layers in between plan,
dedup, cache and recover — none of that may change a single byte of the
answer.

The property is checked over generated requests (the wire-format
strategy of the epoch-6 suite: every distribution family, fault plans,
watchdog policies, timing and telemetry blocks, both engine
declarations).  The reference is the event engine on a private scenario
copy; every other route must produce a pickle-identical result, or —
when the request is invalid for its protocol — fail on every route.

Results are compared by their *canonical* pickle: the bytes after one
pickle round trip, which is the form every result that crossed the
cache or a process boundary is in.  A fresh result with both event and
metrics telemetry shares objects between the two payloads, and pickle's
memo records that sharing, so its first pickle differs from its
replay's in layout (never in content); the pinned ``xfail`` below keeps
that visible.
"""

import copy
import pickle
from dataclasses import replace

import pytest
from hypothesis import given, settings as hyp_settings
from test_cache_epoch6_session import _requests

from repro.engine.batch import batch_capable, run_lanes
from repro.experiments.cache import ResultCache, cache_key
from repro.experiments.runner import SimulationSettings
from repro.observability import TelemetrySettings
from repro.service import ArbitrationService, BackoffPolicy, ServiceConfig
from repro.session import RunRequest, Session, run_cell
from repro.workload.scenarios import equal_load

#: Generated examples per property run: each example executes a request
#: about six times, so this is the suite's wall-time knob.
EXAMPLES = 40


@pytest.fixture(scope="module")
def service():
    # No retry pacing: invalid requests fail on every attempt.
    config = ServiceConfig(serial=True, poll_interval=0.01, backoff=BackoffPolicy.none())
    with ArbitrationService(config=config) as service:
        yield service


def _canonical(result):
    """The result's pickle after one round trip (see the module docstring)."""
    return pickle.dumps(pickle.loads(pickle.dumps(result)))


def _event(request):
    resolved = request.resolved()
    return run_cell(
        copy.deepcopy(resolved.scenario),
        resolved.protocol,
        replace(resolved.settings, engine="event"),
    )


def _direct(request):
    resolved = request.resolved()
    return run_cell(copy.deepcopy(resolved.scenario), resolved.protocol, resolved.settings)


def _lanes(request):
    scenario, protocol, settings = request.resolved().as_cell()
    if not batch_capable(scenario, protocol, settings)[0]:
        return None
    (result,) = run_lanes([(copy.deepcopy(scenario), protocol, settings)])
    return result


def _cache_replay(request, directory):
    cache = ResultCache(directory)
    cache.put(request.cache_key(), _direct(request))
    return ResultCache(directory).get(request.cache_key())


def _session_twice(request):
    outcomes = Session(jobs=1).run_requests([request, request])
    assert [outcome.route for outcome in outcomes][1] == "dedup"
    return [outcome.result for outcome in outcomes]


def _served(service, request):
    job = service.submit([request])
    assert job.wait(60)
    return job.results()[0]


def _wire(request):
    return _direct(RunRequest.from_json(request.to_json()))


def _interned(request):
    wire = request.to_json()
    first = RunRequest.from_json(wire)
    second = RunRequest.from_json(wire)
    assert (second is first) == (not first.stateful)
    return _direct(second)


def _hot_replay(request, directory):
    cache = ResultCache(directory)
    cache.put(request.cache_key(), _direct(request))
    first = cache.get(request.cache_key())
    second = cache.get(request.cache_key())
    assert second is first
    return second


def _answered_at_admission(request, directory):
    config = ServiceConfig(serial=True, poll_interval=0.01, backoff=BackoffPolicy.none())
    with ArbitrationService(cache=ResultCache(directory), config=config) as service:
        _served(service, request)  # a miss: dispatched, run and stored
        job = service.submit([request])
        assert job.state == "done", "an all-hit job must finish inside submit"
        assert job.outcomes[0].route == "cache"
        return job.results()[0]


def _check_memoized_key(request):
    fresh = cache_key(*request.resolved().as_cell())
    assert request.cache_key() == fresh
    assert request.cache_key() == fresh  # the memoized key
    for engine in ("event", "batch"):
        assert request.resolved(engine).cache_key() == fresh


class TestEveryRouteSameBytes:
    @hyp_settings(max_examples=EXAMPLES, deadline=None)
    @given(request=_requests)
    def test_routes_agree_on_the_result_pickle(self, request, service, tmp_path_factory):
        try:
            reference = _event(request)
        except Exception as exc:
            # An invalid request (say, a fault kind the protocol cannot
            # inject) must fail the same way on the per-cell path, and
            # terminally on the service rather than hang or succeed.
            with pytest.raises(type(exc)):
                _direct(request)
            job = service.submit([request])
            assert job.wait(60)
            assert job.state == "failed"
            return
        expected = _canonical(reference)
        _check_memoized_key(request)
        results = {
            "direct": _direct(request),
            "lanes": _lanes(request),
            "cache": _cache_replay(request, tmp_path_factory.mktemp("cache")),
            "service": _served(service, request),
            "wire": _wire(request),
            "interned": _interned(request),
            "hot": _hot_replay(request, tmp_path_factory.mktemp("hot")),
            "admission": _answered_at_admission(request, tmp_path_factory.mktemp("admit")),
        }
        first, duplicate = _session_twice(request)
        results["session"] = first
        results["dedup"] = duplicate
        for route, result in results.items():
            if result is None:  # lanes, outside the batch domain
                continue
            assert _canonical(result) == expected, f"{route} route differs from event"


@pytest.mark.xfail(
    strict=True,
    reason="a fresh result with event and metrics telemetry pickles its shared "
    "objects by reference; its cache replay pickles them as copies",
)
def test_fresh_pickle_equals_replayed_pickle_with_events_and_metrics(tmp_path):
    settings = SimulationSettings(
        batches=2,
        batch_size=10,
        warmup=0,
        seed=0,
        engine="event",
        telemetry=TelemetrySettings(events=True, metrics=True),
    )
    request = RunRequest(equal_load(1, 1.0), "rr", settings)
    fresh = _event(request)
    assert pickle.dumps(fresh) == pickle.dumps(_cache_replay(request, tmp_path))

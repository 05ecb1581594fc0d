"""Service layer on the warmed grid: the cached hit path, recorded.

The arbitration service fronts the same planner/cache machinery a
:class:`~repro.session.session.Session` uses directly, adding a job
object, an admission queue, a dispatcher-thread handoff and telemetry
events per *gather*.  None of that may grow a per-cell cost: a client
replaying a warmed grid through the service should pay the same 48
cache reads a direct session pays, plus a fixed sub-millisecond
handoff.  The ``service_overhead`` row of ``gates.py`` times the two
gathers and holds the service under 50% over the direct one: the base
pass is a few milliseconds of cache reads, so the fixed handoff is a
visible fraction of it, while a per-cell cost (re-serialization,
re-hashing, per-cell events) lands hundreds of percent above the bar.

The tests here check that both gathers serve the grid from cache, to
the same results, and record each gather's median.
"""

import pickle

import pytest
from gates import cached_service, grid_cells, requests_for, warmed_cache

from repro.experiments.cache import ResultCache
from repro.session import Session


@pytest.fixture(scope="module")
def warmed():
    """A cache directory holding every grid cell, plus the requests."""
    requests = requests_for(grid_cells())
    with warmed_cache(requests) as directory:
        yield directory, requests


@pytest.fixture(scope="module")
def service(warmed):
    """One running service over the warmed cache, shared by the module."""
    directory, __ = warmed
    instance = cached_service(directory, poll_interval=0.02)
    instance.start()
    yield instance
    instance.close()


def test_service_serves_the_grid_from_cache(warmed, service):
    """Every cell must route to the cache — the gate times the hit
    path, not an accidental re-execution."""
    __, requests = warmed
    outcomes = service.run_requests(requests)
    assert [outcome.route for outcome in outcomes] == ["cache"] * len(requests)


def test_service_results_match_direct_session(warmed, service):
    directory, requests = warmed
    direct = Session(cache=ResultCache(directory), jobs=1).run_requests(requests)
    routed = service.run_requests(requests)
    for ours, theirs in zip(routed, direct):
        assert pickle.dumps(ours.result) == pickle.dumps(theirs.result)


def test_grid_pass_cached_session(benchmark, warmed):
    """Recorded median of the direct cached gather."""
    directory, requests = warmed
    session = Session(cache=ResultCache(directory), jobs=1)
    outcomes = benchmark.pedantic(
        lambda: session.run_requests(requests), rounds=5, iterations=1
    )
    assert [outcome.route for outcome in outcomes] == ["cache"] * len(requests)


def test_grid_pass_cached_service(benchmark, warmed, service):
    """Recorded median of the service-routed cached gather."""
    __, requests = warmed
    outcomes = benchmark.pedantic(
        lambda: service.run_requests(requests), rounds=5, iterations=1
    )
    assert [outcome.route for outcome in outcomes] == ["cache"] * len(requests)

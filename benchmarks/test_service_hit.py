"""Hit path: a hot cache hit against a cold one, recorded.

A service client sends wire JSON.  On a cold hit every request pays a
JSON decode, a SHA-256 over its re-serialised scenario, a file open and
an unpickle.  On a hot hit the same request is an interned decode
(:meth:`~repro.session.request.RunRequest.from_json`), a memoized key,
one ``os.stat`` against the
:class:`~repro.experiments.cache.ResultCache` hot tier, and a job
answered inside :meth:`~repro.service.service.ArbitrationService.submit`.

The ``hot_hit_speedup`` row of ``gates.py`` serves a warmed 30-agent
grid (8 paper loads x RR/FCFS x 3 seeds, 48 cells) as one job of wire
requests, cold (a fresh ``ResultCache`` over the warmed directory and an
emptied intern table) and hot (a service whose cache and intern table
already served the grid), and holds cold / hot at 10x or more.  With the
hot tier, the interning or the key memo switched off the ratio measured
2.8x, 1.4x and 4.9x; without the answer at admission ``serve``'s check
fails.  The tests here check that both passes hit the cache and record
each pass's median.
"""

import pytest
from gates import cached_service, cold_service, hit_requests, serve, warmed_cache


@pytest.fixture(scope="module")
def warmed():
    """A cache directory holding every grid cell, and the grid as wire JSON."""
    requests = hit_requests()
    with warmed_cache(requests) as directory:
        yield directory, [request.to_json() for request in requests]


@pytest.fixture(scope="module")
def hot(warmed):
    """A service whose cache and intern table have served the grid."""
    directory, wires = warmed
    instance = cached_service(directory)
    serve(instance, wires)
    yield instance
    instance.close()


def test_both_passes_serve_the_grid_from_cache(warmed, hot):
    directory, wires = warmed
    cold = cold_service(directory)
    for service in (cold, hot):
        outcomes = serve(service, wires)
        assert [outcome.route for outcome in outcomes] == ["cache"] * len(wires)
    cold.close()


def test_hit_pass_cold(benchmark, warmed):
    """Recorded cold pass: decode, hash and disk read per request."""
    directory, wires = warmed
    services = []

    def setup():
        services.append(cold_service(directory))
        return (services[-1], wires), {}

    benchmark.pedantic(serve, setup=setup, rounds=5, iterations=1)
    for service in services:
        service.close()


def test_hit_pass_hot(benchmark, warmed, hot):
    """Recorded hot pass."""
    __, wires = warmed

    def setup():
        serve(hot, wires)  # refill the intern table the cold passes emptied
        return (hot, wires), {}

    benchmark.pedantic(serve, setup=setup, rounds=5, iterations=1)

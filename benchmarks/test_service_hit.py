"""Hit-path gate: a hot cache hit must cost a fraction of a cold one.

A service client sends wire JSON.  On a cold hit every request pays a
JSON decode, a SHA-256 over its re-serialised scenario, a file open and
an unpickle.  On a hot hit the same request is an interned decode
(:meth:`~repro.session.request.RunRequest.from_json`), a memoized key,
one ``os.stat`` against the
:class:`~repro.experiments.cache.ResultCache` hot tier, and a job
answered inside :meth:`~repro.service.service.ArbitrationService.submit`.

This bench serves a warmed 30-agent grid (8 paper loads x RR/FCFS x 3
seeds, 48 cells) as one job of wire requests, twice per round:

- **cold**: a fresh ``ResultCache`` over the warmed directory and an
  emptied intern table, so every request decodes, hashes and reads the
  disk;
- **hot**: a service whose cache and intern table already served the
  grid.

Two pytest-benchmark entries record the pair in ``BENCH_engine.json``;
``scripts/run_benchmarks.py`` condenses them into the
``hot_hit_speedup`` ratio (cold / hot, min-of-k) that
``scripts/check_bench.py`` gates.  With the hot tier, the interning or
the key memo switched off the ratio measured 2.8x, 1.4x and 4.9x, under
the bar; without the answer at admission ``_serve``'s check fails.
"""

import time
from dataclasses import replace

import pytest

from repro.experiments.cache import ResultCache
from repro.experiments.reference import LOADS
from repro.experiments.runner import SimulationSettings
from repro.service import ArbitrationService, ServiceConfig
from repro.session import RunRequest, Session
from repro.session.request import clear_interned
from repro.workload.scenarios import equal_load

#: The gate: the hot pass must be at least this many times faster than
#: the cold one, min-of-k on interleaved rounds.
HOT_HIT_GATE = 10.0

SETTINGS = SimulationSettings(batches=2, batch_size=200, warmup=50)


def _grid():
    return [
        RunRequest(equal_load(30, load), protocol, replace(SETTINGS, seed=seed))
        for load in LOADS
        for protocol in ("rr", "fcfs")
        for seed in (12345, 12346, 12347)
    ]


@pytest.fixture(scope="module")
def warmed(tmp_path_factory):
    """A cache directory holding every grid cell, and the grid as wire JSON."""
    directory = tmp_path_factory.mktemp("service-hit-cache")
    requests = _grid()
    Session(cache=ResultCache(directory), jobs=1).run_requests(requests)
    return directory, [request.to_json() for request in requests]


def _service(directory):
    return ArbitrationService(cache=ResultCache(directory), config=ServiceConfig(serial=True))


def _serve(service, wires):
    job = service.submit([RunRequest.from_json(wire) for wire in wires])
    assert job.state == "done"
    return job.outcomes


@pytest.fixture(scope="module")
def hot(warmed):
    """A service whose cache and intern table have served the grid."""
    directory, wires = warmed
    instance = _service(directory)
    _serve(instance, wires)
    yield instance
    instance.close()


def _cold_service(directory):
    clear_interned()
    return _service(directory)


def _timed(service, wires):
    start = time.perf_counter()
    _serve(service, wires)
    return time.perf_counter() - start


def test_both_passes_serve_the_grid_from_cache(warmed, hot):
    directory, wires = warmed
    cold = _cold_service(directory)
    for service in (cold, hot):
        outcomes = _serve(service, wires)
        assert [outcome.route for outcome in outcomes] == ["cache"] * len(wires)
    cold.close()


def test_hot_hit_speedup_gate(warmed, hot):
    """The hot pass at least 10x faster than the cold one, min-of-k."""
    directory, wires = warmed
    cold_times, hot_times = [], []
    for __ in range(5):
        cold = _cold_service(directory)
        cold_times.append(_timed(cold, wires))
        cold.close()
        _serve(hot, wires)  # the intern table again holds the grid
        hot_times.append(_timed(hot, wires))
    speedup = min(cold_times) / min(hot_times)
    print(f"\nhot hit speedup on the 30-agent grid: {speedup:.1f}x (gate >= {HOT_HIT_GATE})")
    assert speedup >= HOT_HIT_GATE


def test_hit_pass_cold(benchmark, warmed):
    """Recorded cold pass: decode, hash and disk read per request."""
    directory, wires = warmed
    services = []

    def setup():
        services.append(_cold_service(directory))
        return (services[-1], wires), {}

    benchmark.pedantic(_serve, setup=setup, rounds=5, iterations=1)
    for service in services:
        service.close()


def test_hit_pass_hot(benchmark, warmed, hot):
    """Recorded hot pass; paired with the cold one as ``hot_hit_speedup``."""
    __, wires = warmed

    def setup():
        _serve(hot, wires)  # refill the intern table the cold passes emptied
        return (hot, wires), {}

    benchmark.pedantic(_serve, setup=setup, rounds=5, iterations=1)

"""Micro-benchmarks of the simulation substrate itself.

Calibrated pytest-benchmark timings (unlike the one-shot table
regenerations): event-calendar throughput, the wired-OR settle process,
and a full small bus simulation.  Useful for catching performance
regressions in the engine.
"""

import random
import time
from dataclasses import replace

from gates import min_of_k

from repro.engine.simulator import Simulator
from repro.experiments.runner import SimulationSettings, run_simulation
from repro.observability.events import TelemetrySettings
from repro.signals.contention import ParallelContention
from repro.workload.scenarios import equal_load


def test_event_calendar_throughput(benchmark):
    """Schedule-and-fire cost of 10k chained events."""

    def run_events():
        sim = Simulator()
        remaining = [10_000]

        def tick():
            remaining[0] -= 1
            if remaining[0] > 0:
                sim.schedule(1.0, tick)

        sim.schedule(0.0, tick)
        sim.run()
        return sim.events_executed

    events = benchmark(run_events)
    assert events == 10_000


def test_wired_or_settle(benchmark):
    """Full settle process over 32 competitors on 7 lines."""
    rng = random.Random(5)
    identities = rng.sample(range(1, 128), 32)
    contention = ParallelContention(7)

    result = benchmark(lambda: contention.resolve(identities))
    assert result.winner_identity == max(identities)


def test_small_bus_simulation(benchmark):
    """2000-completion RR simulation, 10 agents at saturation.

    Pinned to the event engine: this entry tracks the event calendar's
    end-to-end cost (the batch engine's grid cost has its own entries
    in ``test_grid_batch.py``), and the pin keeps the baseline
    comparable across the default-engine flip.
    """
    scenario = equal_load(10, 2.0)
    settings = SimulationSettings(
        batches=2, batch_size=1000, warmup=0, seed=8, engine="event"
    )

    result = benchmark.pedantic(
        lambda: run_simulation(scenario, "rr", settings), rounds=3, iterations=1
    )
    assert result.system_throughput().mean > 0.9


def test_bus_simulation_with_event_telemetry(benchmark):
    """Same run with the full event stream + metrics retained.

    Not an acceptance gate — this pins the *enabled* cost so the
    emission path never silently becomes the bottleneck.
    """
    scenario = equal_load(10, 2.0)
    settings = SimulationSettings(
        batches=2,
        batch_size=1000,
        warmup=0,
        seed=8,
        engine="event",
        telemetry=TelemetrySettings(events=True, metrics=True),
    )

    result = benchmark.pedantic(
        lambda: run_simulation(scenario, "rr", settings), rounds=3, iterations=1
    )
    assert result.events
    assert result.metrics is not None


def test_batch_replication_r32(benchmark):
    """32 lockstep replications of the small-bus cell on the batch engine.

    The replication-throughput counterpart of
    :func:`test_small_bus_simulation`: same cell, 32 seeds, one lockstep
    pass.  Its median belongs in ``BENCH_engine.json`` so the bench
    guard catches a regression in the batch engine's hot loop, not just
    the event calendar's.
    """
    from repro.engine.batch import run_replications

    scenario = equal_load(10, 2.0)
    settings = SimulationSettings(batches=2, batch_size=1000, warmup=0)
    seeds = list(range(1, 33))

    results = benchmark.pedantic(
        lambda: run_replications(scenario, "rr", settings, seeds),
        rounds=3,
        iterations=1,
    )
    assert len(results) == 32
    assert results[0].system_throughput().mean > 0.9


def test_batch_engine_speedup_gate_at_r32():
    """The batch engine's acceptance bar: ≥ 3× at 32 replications.

    The lockstep engine's reason to exist is replication throughput, so
    the gate measures exactly that: 32 seeds of the small-bus cell, one
    ``run_replications`` pass against 32 independent event-engine runs,
    timed interleaved min-of-k by ``gates.min_of_k``.  The engine
    measures ≈ 9-10× locally, so the 3× bar has real headroom.  Unlike
    the rows of ``gates.GATES`` this ratio is not recorded.  The ratio
    is printed (run with ``-s``) for the docs' performance table.
    """
    from repro.engine.batch import run_replications

    scenario = equal_load(10, 2.0)
    settings = SimulationSettings(batches=2, batch_size=1000, warmup=0)
    seeds = list(range(1, 33))

    def event_pass():
        start = time.perf_counter()
        for seed in seeds:
            # The pin matters: run_simulation defaults to the batch
            # engine in-domain, and the gate must time the event engine.
            run_simulation(scenario, "rr", replace(settings, seed=seed, engine="event"))
        return time.perf_counter() - start

    def batch_pass():
        start = time.perf_counter()
        run_replications(scenario, "rr", settings, seeds)
        return time.perf_counter() - start

    speedup = min_of_k(event_pass, batch_pass, rounds=3)
    print(f"\nbatch-engine speedup at R=32: {speedup:.2f}x (gate >= 3.0)")
    assert speedup >= 3.0


def test_disabled_telemetry_overhead_is_negligible():
    """The observability acceptance bar: sinks off must cost ≈ nothing.

    With ``telemetry=None`` the bus pays one truthiness check of an
    empty tuple per arbitration.  That check cannot be isolated from
    the engine it lives in, so this measures the stricter quantity
    that bounds it from above: a run with a live :class:`NullSink`
    (full event construction + emission) against the disabled run,
    interleaved min-of-k (``gates.min_of_k``) so machine drift hits
    both and a load spike cannot flake the gate.  The disabled-path
    overhead is strictly below whatever this ratio shows.  The target
    for the *disabled* path is ≤ 3%; the enabled bound typically
    measures ≈ 1.12–1.23 and the assertion allows 1.5 so CI jitter on
    shared runners cannot flake the suite while still catching a
    pathological emission path.  Unlike the rows of ``gates.GATES``
    this ratio is not recorded.  The measured ratio is printed (run
    with ``-s``) for the docs' overhead table.
    """
    from repro.bus.model import BusSystem
    from repro.observability.sinks import NullSink
    from repro.protocols.registry import make_arbiter
    from repro.stats.collector import CompletionCollector

    scenario = equal_load(10, 2.0)

    def one_run(sink):
        collector = CompletionCollector(batches=2, batch_size=1000, warmup=0)
        system = BusSystem(
            scenario,
            make_arbiter("rr", scenario.num_agents),
            collector,
            seed=8,
            sink=sink,
        )
        start = time.perf_counter()
        system.run()
        return time.perf_counter() - start

    ratio = min_of_k(lambda: one_run(NullSink()), lambda: one_run(None), rounds=7)
    print(f"\nnull-sink-enabled / disabled ratio: {ratio:.4f} "
          "(disabled-path target <= 1.03, bounded above by this)")
    assert ratio <= 1.5

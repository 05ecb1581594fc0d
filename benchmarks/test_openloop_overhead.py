"""Open-loop arrival-layer cost gate: bursty sources must stay cheap.

The arrival layer moved workload generation from closed-loop think
timers (one exponential draw per completion) to free-running arrival
clocks — per-draw MMPP phase walks, outstanding-request accounting, and
the priority-class coin flip.  All of that runs once per request on the
event engine's hot path, so the honest measure is *per-completion cost*:
an open-loop sweep at the same completion budget may cost at most 1.5x
the closed-loop sweep it grew out of.

Both passes run the event engine.  The open-loop cells carry the §5
priority class, and every cell pins ``engine="event"``: open-loop r=1
cells, priority-classed or not, are inside the lane domain, and
comparing against lane-packed cells would measure the batch engine,
not the arrival layer.  Two
pytest-benchmark entries record the pair *adjacent in this file* (same
machine state, drift-free ratio); ``scripts/run_benchmarks.py``
condenses them into an ``openloop_overhead`` fraction that
``scripts/check_bench.py`` gates, and ``test_openloop_overhead_gate``
enforces the same bar in-test with the interleaved min-of-k discipline
the other gates use.
"""

import time
from dataclasses import replace

from repro.experiments.runner import SimulationSettings, run_simulation
from repro.workload.arrivals import bursty_equal_load
from repro.workload.scenarios import equal_load

#: The gate: per-completion, the open-loop bursty sweep may cost at
#: most this fraction over the closed-loop sweep (<= 1.5x).
OVERHEAD_GATE = 0.5

PROTOCOLS = ("rr", "fcfs", "fcfs-aincr")
SEEDS = (1, 2)

#: Identical completion budget on both sides: per-completion cost is
#: then just the pass ratio.
SETTINGS = SimulationSettings(batches=2, batch_size=250, warmup=50, engine="event")


def closed_cells():
    scenario = equal_load(8, 4.0)
    return [
        (scenario, protocol, replace(SETTINGS, seed=seed))
        for protocol in PROTOCOLS
        for seed in SEEDS
    ]


def open_cells():
    # Fresh scenarios per call: the MMPP sources carry phase state.
    return [
        (
            bursty_equal_load(8, 0.9, urgent_fraction=0.2),
            protocol,
            replace(SETTINGS, seed=seed),
        )
        for protocol in PROTOCOLS
        for seed in SEEDS
    ]


def _pass(cells):
    start = time.perf_counter()
    results = [
        run_simulation(scenario, protocol, settings)
        for scenario, protocol, settings in cells
    ]
    return time.perf_counter() - start, results


def test_both_sweeps_complete_the_same_budget():
    """Equal recorded completions per cell — the ratio is per-completion."""
    _, closed = _pass(closed_cells())
    _, opened = _pass(open_cells())
    budgets = {r.collector.total_recorded for r in closed + opened}
    assert budgets == {SETTINGS.batches * SETTINGS.batch_size + SETTINGS.warmup}


def test_openloop_overhead_gate():
    """Open-loop sweep within 1.5x of the closed-loop sweep, min-of-k.

    Interleaved rounds, minimum of each series: the same discipline as
    the session and service gates, so runner noise is stripped before
    the ratio is taken.
    """
    _pass(open_cells())  # warm allocator / code caches
    open_times, closed_times = [], []
    for _ in range(5):
        closed_time, _ = _pass(closed_cells())
        open_time, _ = _pass(open_cells())
        closed_times.append(closed_time)
        open_times.append(open_time)
    overhead = min(open_times) / min(closed_times) - 1.0
    print(
        f"\nopen-loop per-completion overhead: {overhead:+.2%} "
        f"(gate < {OVERHEAD_GATE:.0%})"
    )
    assert overhead < OVERHEAD_GATE


def test_sweep_pass_closed_loop_paired(benchmark):
    """Recorded median of the closed-loop event sweep, as pair baseline.

    Runs immediately before ``test_sweep_pass_open_loop`` so the two
    medians share machine state; their ratio is the recorded
    ``openloop_overhead``.
    """
    results = benchmark.pedantic(lambda: _pass(closed_cells())[1], rounds=5, iterations=1)
    assert len(results) == len(PROTOCOLS) * len(SEEDS)


def test_sweep_pass_open_loop(benchmark):
    """Recorded median of the open-loop bursty two-class event sweep.

    Paired with ``test_sweep_pass_closed_loop_paired`` this yields the
    ``openloop_overhead`` fraction ``scripts/check_bench.py`` gates.
    """
    results = benchmark.pedantic(lambda: _pass(open_cells())[1], rounds=5, iterations=1)
    assert len(results) == len(PROTOCOLS) * len(SEEDS)

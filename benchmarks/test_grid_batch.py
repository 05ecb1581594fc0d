"""Full-grid end-to-end benchmark of the heterogeneous lane engine.

One ``run_lanes`` pass over a whole experiment grid — every protocol
family, eight seeds each — against the same grid run cell-by-cell on the
event engine.  This is the workload the lane engine exists for (a
session packs exactly this kind of grid), so its speedup gate is
the end-to-end acceptance bar, complementing the single-cell
replication gate in ``test_engine_microbench.py``.

The grid sits at the paper's peak-contention corner (§4.1): four agents
at per-agent offered load 1.0, CV = 1, matching the golden traces' bus
width.  Saturation maximises arbitrations per unit of simulated time,
which is the honest place to measure an arbitration engine.

Two pytest-benchmark entries record the grid's batch and event medians
in ``BENCH_engine.json`` so ``scripts/check_bench.py`` can gate the
recorded speedup and catch drift in either engine.

A second pair times the synchronous-bus slice of the event-heavy
benchmark grid (12 clocked cells, §2.1) on both engines; its recorded
ratio is the ``sync_grid_speedup`` the bench guard gates.  A third pair
does the same for the grid's two-class priority slice (12 cells, §2.4),
recorded as ``priority_grid_speedup``, and a fourth for the robustness
grid's fault-model slice (12 cells, §3.1/§3.2), recorded as
``fault_grid_speedup``.

A last pair times the six lane protocols at one (N, load, seed) as one
lane pack against six one-cell packs.  The pack seeds and draws each
agent's think-time stream once and shares it between its lanes; the
ratio is the recorded ``shared_tape_speedup``.  Another pair does the
same for the stateful and classed streams of perfbench's ``grid-event``
(bursty MMPP and two-class cells), recorded as
``stateful_tape_speedup``.
"""

import pickle
import time
from dataclasses import replace

from repro.bus.timing import BusTiming
from repro.bus.watchdog import WatchdogPolicy
from repro.engine.batch import run_lanes
from repro.experiments.robustness import DEFAULT_FAULT_RATES, fault_plan_for, grid_scenario
from repro.experiments.runner import SimulationSettings, run_simulation
from repro.experiments.scale import Scale
from repro.workload.arrivals import bursty_equal_load, two_class_priority_load
from repro.workload.scenarios import equal_load

#: The synchronous slice's floor over the event engine, per pass.
SYNC_SPEEDUP_GATE = 2.5

#: The priority slice's floor over the event engine, per pass.
PRIORITY_SPEEDUP_GATE = 2.5

#: The fault-model slice's floor over the event engine, per pass.
FAULT_SPEEDUP_GATE = 2.5

#: One six-protocol pack's floor over six one-cell packs, per pass.
SHARED_TAPE_SPEEDUP_GATE = 1.1

#: The bursty and two-class pack's floor over its one-cell packs.
STATEFUL_TAPE_SPEEDUP_GATE = 1.15

#: One lane family per kernel implementation, both FCFS counter
#: strategies included — the gate must pay every kernel's dispatch cost.
PROTOCOLS = ("rr", "rr-impl2", "rr-impl3", "fcfs", "fcfs-aincr", "fixed")
SEEDS = tuple(range(8))


def grid_cells():
    """The 6-protocol x 8-seed peak-contention grid (48 cells)."""
    scenario = equal_load(4, 4.0)  # per-agent load 1.0: saturation
    settings = SimulationSettings(batches=2, batch_size=500, warmup=50)
    return [
        (scenario, protocol, replace(settings, seed=seed))
        for protocol in PROTOCOLS
        for seed in SEEDS
    ]


def sync_cells():
    """The 12-cell synchronous slice: N 10/30 x RR/FCFS x two seeds.

    Total load 2.0 on a bus clocked at a quarter of the tenure, the
    run length of the event-heavy benchmark grid.
    """
    settings = SimulationSettings(
        batches=2, batch_size=100, warmup=50, timing=BusTiming(clock_period=0.25)
    )
    return [
        (equal_load(n, 2.0), protocol, replace(settings, seed=seed))
        for n in (10, 30)
        for seed in (12345, 12346)
        for protocol in ("rr", "fcfs", "fcfs-aincr")
    ]


def priority_cells():
    """The 12-cell priority slice: N 10/30 x RR/FCFS x two seeds.

    Total load 2.0 with each request urgent with probability 0.2, the
    run length of the event-heavy benchmark grid.
    """
    settings = SimulationSettings(batches=2, batch_size=100, warmup=50)
    return [
        (two_class_priority_load(n, 2.0, 0.2), protocol, replace(settings, seed=seed))
        for n in (10, 30)
        for seed in (12345, 12346)
        for protocol in ("rr", "fcfs", "fcfs-aincr")
    ]


def fault_cells():
    """The 12-cell fault-model slice: RR register / FCFS counter faults.

    The robustness grid's cells for its two fault-observable protocols
    (10 agents at load 2.0, each default fault rate, default watchdog)
    at two seeds, with the run length of the event-heavy benchmark grid.
    """
    scale = Scale("fault-slice", batches=2, batch_size=100, warmup=50)
    settings = SimulationSettings(
        batches=scale.batches,
        batch_size=scale.batch_size,
        warmup=scale.warmup,
        keep_order=True,
        watchdog=WatchdogPolicy(),
    )
    return [
        (
            grid_scenario(),
            protocol,
            replace(settings, seed=seed, fault_plan=fault_plan_for(protocol, rate, scale, seed)),
        )
        for protocol in ("rr-faulty-register", "fcfs-glitchable")
        for rate in DEFAULT_FAULT_RATES
        for seed in (12345, 12346)
    ]


def shared_tape_cells():
    """The six lane protocols at N = 64, total load 2.0, one seed.

    The run length of perfbench's ``grid-lanes`` cells: 1,050
    completions, about 17 think times per agent.
    """
    settings = SimulationSettings(batches=2, batch_size=500, warmup=50, seed=7)
    return [(equal_load(64, 2.0), protocol, settings) for protocol in PROTOCOLS]


def stateful_tape_cells():
    """Bursty (MMPP) and two-class N = 30 cells under ``grid-event``'s
    protocols, at its run length (250 completions) and one seed."""
    settings = SimulationSettings(batches=2, batch_size=100, warmup=50, seed=300)
    scenarios = (bursty_equal_load(30, 0.9), two_class_priority_load(30, 2.0, urgent_fraction=0.2))
    return [
        (scenario, protocol, settings)
        for scenario in scenarios
        for protocol in ("rr", "fcfs", "fcfs-aincr")
    ]


def _event_pass(cells):
    start = time.perf_counter()
    results = [
        run_simulation(scenario, protocol, replace(settings, engine="event"))
        for scenario, protocol, settings in cells
    ]
    return time.perf_counter() - start, results


def _batch_pass(cells):
    start = time.perf_counter()
    results = run_lanes(cells)
    return time.perf_counter() - start, results


def _speedup(cells, rounds):
    """Event-over-lanes ratio of pass minima over interleaved rounds."""
    _batch_pass(cells)  # warm allocator / code caches
    batch_times, event_times = [], []
    for _ in range(rounds):
        event_time, _ = _event_pass(cells)
        batch_time, _ = _batch_pass(cells)
        event_times.append(event_time)
        batch_times.append(batch_time)
    return min(event_times) / min(batch_times)


def test_grid_lanes_bit_identical_to_event_engine():
    """Every cell of the grid agrees across engines, agent by agent.

    The conformance suite proves bit-identity on the full differential
    matrix (fault plans included); this repeats the check on the exact
    grid the speedup gate times, so the gate can never quietly measure
    two engines computing different things.
    """
    cells = grid_cells()
    _, batch_results = _batch_pass(cells)
    _, event_results = _event_pass(cells)
    assert len(batch_results) == len(event_results) == len(cells)
    for (_, protocol, settings), ours, theirs in zip(
        cells, batch_results, event_results
    ):
        assert ours.collector.agent_totals == theirs.collector.agent_totals, (
            f"{protocol} seed={settings.seed}: lane engine diverged"
        )
        assert ours.collector.total_recorded == theirs.collector.total_recorded


def test_grid_batch_speedup_gate():
    """The grid-wide acceptance bar: >= 10x end-to-end over the grid.

    Interleaved rounds with a min-of-k comparison (the same discipline
    as the R=32 replication gate) keep shared-runner drift from flaking
    it.  The lane engine measures ~10.2-10.9x on this grid locally;
    the printed ratio (run with ``-s``) feeds the docs' performance
    table.
    """
    speedup = _speedup(grid_cells(), rounds=4)
    print(f"\ngrid-wide batch speedup: {speedup:.2f}x (gate >= 10.0)")
    assert speedup >= 10.0


def test_grid_pass_batch_lanes(benchmark):
    """Recorded median of one lane-engine pass over the full grid."""
    cells = grid_cells()
    results = benchmark.pedantic(lambda: run_lanes(cells), rounds=5, iterations=1)
    assert len(results) == len(cells)
    assert all(r.collector.total_recorded == 1050 for r in results)


def test_grid_pass_event_engine(benchmark):
    """Recorded median of the same grid on the event engine.

    The recorded pair (this entry and ``test_grid_pass_batch_lanes``)
    is what ``scripts/check_bench.py`` uses to gate the >= 10x grid
    speedup at the committed baseline.
    """
    cells = grid_cells()
    results = benchmark.pedantic(
        lambda: _event_pass(cells)[1], rounds=3, iterations=1
    )
    assert len(results) == len(cells)
    assert all(r.collector.total_recorded == 1050 for r in results)


def test_sync_lanes_byte_identical_to_event_engine():
    """The synchronous slice pickles identically on both engines."""
    cells = sync_cells()
    _, batch_results = _batch_pass(cells)
    _, event_results = _event_pass(cells)
    for ours, theirs in zip(batch_results, event_results):
        assert pickle.dumps(ours) == pickle.dumps(theirs)


def test_sync_grid_speedup_gate():
    """Lanes >= 2.5x the event engine on the synchronous slice, min-of-k.

    Interleaved rounds, minimum of each series, as for the full grid.
    """
    speedup = _speedup(sync_cells(), rounds=5)
    print(f"\nsynchronous slice speedup: {speedup:.2f}x (gate >= {SYNC_SPEEDUP_GATE})")
    assert speedup >= SYNC_SPEEDUP_GATE


def test_sync_pass_event_engine(benchmark):
    """Recorded event-engine pass over the synchronous slice.

    Runs immediately before ``test_sync_pass_batch_lanes`` so the two
    share machine state; the ratio of their minima is the recorded
    ``sync_grid_speedup``.
    """
    cells = sync_cells()
    results = benchmark.pedantic(lambda: _event_pass(cells)[1], rounds=5, iterations=1)
    assert len(results) == len(cells)


def test_sync_pass_batch_lanes(benchmark):
    """Recorded lane-engine pass over the synchronous slice."""
    cells = sync_cells()
    results = benchmark.pedantic(lambda: run_lanes(cells), rounds=5, iterations=1)
    assert all(r.collector.total_recorded == 250 for r in results)


def test_priority_lanes_byte_identical_to_event_engine():
    """The priority slice pickles identically on both engines."""
    cells = priority_cells()
    _, batch_results = _batch_pass(cells)
    _, event_results = _event_pass(cells)
    for ours, theirs in zip(batch_results, event_results):
        assert pickle.dumps(ours) == pickle.dumps(theirs)


def test_priority_grid_speedup_gate():
    """Lanes >= 2.5x the event engine on the priority slice, min-of-k."""
    speedup = _speedup(priority_cells(), rounds=5)
    print(f"\npriority slice speedup: {speedup:.2f}x (gate >= {PRIORITY_SPEEDUP_GATE})")
    assert speedup >= PRIORITY_SPEEDUP_GATE


def test_priority_pass_event_engine(benchmark):
    """Recorded event-engine pass over the priority slice.

    Runs immediately before ``test_priority_pass_batch_lanes`` so the
    two share machine state; the ratio of their minima is the recorded
    ``priority_grid_speedup``.
    """
    cells = priority_cells()
    results = benchmark.pedantic(lambda: _event_pass(cells)[1], rounds=5, iterations=1)
    assert len(results) == len(cells)


def test_priority_pass_batch_lanes(benchmark):
    """Recorded lane-engine pass over the priority slice."""
    cells = priority_cells()
    results = benchmark.pedantic(lambda: run_lanes(cells), rounds=5, iterations=1)
    assert all(r.collector.total_recorded == 250 for r in results)


def test_fault_lanes_byte_identical_to_event_engine():
    """The fault-model slice pickles identically on both engines."""
    cells = fault_cells()
    assert any(len(settings.fault_plan) for _, _, settings in cells)
    _, batch_results = _batch_pass(cells)
    _, event_results = _event_pass(cells)
    for ours, theirs in zip(batch_results, event_results):
        assert pickle.dumps(ours) == pickle.dumps(theirs)


def test_fault_grid_speedup_gate():
    """Lanes >= 2.5x the event engine on the fault-model slice, min-of-k."""
    speedup = _speedup(fault_cells(), rounds=5)
    print(f"\nfault-model slice speedup: {speedup:.2f}x (gate >= {FAULT_SPEEDUP_GATE})")
    assert speedup >= FAULT_SPEEDUP_GATE


def test_fault_pass_event_engine(benchmark):
    """Recorded event-engine pass over the fault-model slice.

    Runs immediately before ``test_fault_pass_batch_lanes`` so the two
    share machine state; the ratio of their minima is the recorded
    ``fault_grid_speedup``.
    """
    cells = fault_cells()
    results = benchmark.pedantic(lambda: _event_pass(cells)[1], rounds=5, iterations=1)
    assert len(results) == len(cells)


def test_fault_pass_batch_lanes(benchmark):
    """Recorded lane-engine pass over the fault-model slice."""
    cells = fault_cells()
    results = benchmark.pedantic(lambda: run_lanes(cells), rounds=5, iterations=1)
    assert all(r.collector.total_recorded == 250 for r in results)


def _one_cell_packs(cells):
    return [result for cell in cells for result in run_lanes([cell])]


def test_shared_pack_byte_identical_to_one_cell_packs():
    """A cell pickles the same in the six-protocol pack and alone."""
    cells = shared_tape_cells()
    for ours, theirs in zip(run_lanes(cells), _one_cell_packs(cells)):
        assert pickle.dumps(ours) == pickle.dumps(theirs)


def _pack_speedup(cells, rounds=5):
    """One-cell packs over one pack, interleaved min-of-k."""
    run_lanes(cells)  # warm allocator / code caches
    packed, alone = [], []
    for _ in range(rounds):
        start = time.perf_counter()
        _one_cell_packs(cells)
        alone.append(time.perf_counter() - start)
        start = time.perf_counter()
        run_lanes(cells)
        packed.append(time.perf_counter() - start)
    return min(alone) / min(packed)


def test_shared_tape_speedup_gate():
    """One pack >= 1.1x six one-cell packs, interleaved min-of-k."""
    speedup = _pack_speedup(shared_tape_cells())
    print(f"\nshared tape speedup: {speedup:.2f}x (gate >= {SHARED_TAPE_SPEEDUP_GATE})")
    assert speedup >= SHARED_TAPE_SPEEDUP_GATE


def test_shared_pass_one_cell_packs(benchmark):
    """Recorded pass of the six cells as six one-cell packs.

    Runs immediately before ``test_shared_pass_one_pack`` so the two
    share machine state; the ratio of their minima is the recorded
    ``shared_tape_speedup``.
    """
    cells = shared_tape_cells()
    results = benchmark.pedantic(lambda: _one_cell_packs(cells), rounds=7, iterations=1)
    assert all(r.collector.total_recorded == 1050 for r in results)


def test_shared_pass_one_pack(benchmark):
    """Recorded pass of the same six cells as one lane pack."""
    cells = shared_tape_cells()
    results = benchmark.pedantic(lambda: run_lanes(cells), rounds=7, iterations=1)
    assert all(r.collector.total_recorded == 1050 for r in results)


def test_stateful_pack_byte_identical_to_one_cell_packs():
    """A bursty or two-class cell pickles the same in the pack and alone."""
    cells = stateful_tape_cells()
    for ours, theirs in zip(run_lanes(cells), _one_cell_packs(cells)):
        assert pickle.dumps(ours) == pickle.dumps(theirs)


def test_stateful_tape_speedup_gate():
    """The bursty and two-class pack >= 1.15x its one-cell packs."""
    speedup = _pack_speedup(stateful_tape_cells(), rounds=7)
    print(f"\nstateful tape speedup: {speedup:.2f}x (gate >= {STATEFUL_TAPE_SPEEDUP_GATE})")
    assert speedup >= STATEFUL_TAPE_SPEEDUP_GATE


def test_stateful_pass_one_cell_packs(benchmark):
    """Recorded pass of the bursty and two-class cells as one-cell packs.

    Runs immediately before ``test_stateful_pass_one_pack``; the ratio of
    their minima is the recorded ``stateful_tape_speedup``.
    """
    cells = stateful_tape_cells()
    results = benchmark.pedantic(lambda: _one_cell_packs(cells), rounds=25, iterations=1)
    assert all(r.collector.total_recorded == 250 for r in results)


def test_stateful_pass_one_pack(benchmark):
    """Recorded pass of the same cells as one lane pack."""
    cells = stateful_tape_cells()
    results = benchmark.pedantic(lambda: run_lanes(cells), rounds=25, iterations=1)
    assert all(r.collector.total_recorded == 250 for r in results)

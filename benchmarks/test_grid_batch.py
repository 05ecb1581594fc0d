"""Lane-engine grids: identity checks and recorded passes.

One ``run_lanes`` pass over a whole experiment grid — every protocol
family, eight seeds each — against the same grid run cell-by-cell on the
event engine.  This is the workload the lane engine exists for (a
session packs exactly this kind of grid).  The grid sits at the paper's
peak-contention corner (§4.1), where saturation maximises arbitrations
per unit of simulated time: the honest place to measure an arbitration
engine.

Beside it: the synchronous-bus (§2.1), two-class priority (§2.4) and
fault-model (§3.1/§3.2) slices of the event-heavy benchmark grid, and
the six lane protocols, then perfbench ``grid-event``'s bursty and
two-class cells, as one lane pack against one-cell packs (the pack
seeds and draws each think-time stream once and shares it between its
lanes).

The cells and passes are built in ``gates.py``, whose rows time them as
the ``grid_speedup``, ``sync_grid_speedup``, ``priority_grid_speedup``,
``fault_grid_speedup``, ``shared_tape_speedup`` and
``stateful_tape_speedup`` gates.  The tests here check that each gate
times two sides computing the same thing, and record each pass's median
in ``BENCH_engine.json`` for the bench guard's drift check.
"""

import pickle

from gates import (
    event_pass,
    fault_cells,
    grid_cells,
    one_cell_packs,
    priority_cells,
    shared_tape_cells,
    stateful_tape_cells,
    sync_cells,
)

from repro.engine.batch import run_lanes


def test_grid_lanes_bit_identical_to_event_engine():
    """Every cell of the grid agrees across engines, agent by agent.

    The conformance suite proves bit-identity on the full differential
    matrix (fault plans included); this repeats the check on the exact
    grid the speedup gate times, so the gate can never quietly measure
    two engines computing different things.
    """
    cells = grid_cells()
    batch_results = run_lanes(cells)
    event_results = event_pass(cells)
    assert len(batch_results) == len(event_results) == len(cells)
    for (_, protocol, settings), ours, theirs in zip(
        cells, batch_results, event_results
    ):
        assert ours.collector.agent_totals == theirs.collector.agent_totals, (
            f"{protocol} seed={settings.seed}: lane engine diverged"
        )
        assert ours.collector.total_recorded == theirs.collector.total_recorded


def test_grid_pass_batch_lanes(benchmark):
    """Recorded median of one lane-engine pass over the full grid."""
    cells = grid_cells()
    results = benchmark.pedantic(lambda: run_lanes(cells), rounds=5, iterations=1)
    assert len(results) == len(cells)
    assert all(r.collector.total_recorded == 1050 for r in results)


def test_grid_pass_event_engine(benchmark):
    """Recorded median of the same grid on the event engine."""
    cells = grid_cells()
    results = benchmark.pedantic(lambda: event_pass(cells), rounds=3, iterations=1)
    assert len(results) == len(cells)
    assert all(r.collector.total_recorded == 1050 for r in results)


def _pickles_alike(ours, theirs):
    for mine, other in zip(ours, theirs):
        assert pickle.dumps(mine) == pickle.dumps(other)


def test_sync_lanes_byte_identical_to_event_engine():
    """The synchronous slice pickles identically on both engines."""
    cells = sync_cells()
    _pickles_alike(run_lanes(cells), event_pass(cells))


def test_sync_pass_event_engine(benchmark):
    """Recorded event-engine pass over the synchronous slice."""
    cells = sync_cells()
    results = benchmark.pedantic(lambda: event_pass(cells), rounds=5, iterations=1)
    assert len(results) == len(cells)


def test_sync_pass_batch_lanes(benchmark):
    """Recorded lane-engine pass over the synchronous slice."""
    cells = sync_cells()
    results = benchmark.pedantic(lambda: run_lanes(cells), rounds=5, iterations=1)
    assert all(r.collector.total_recorded == 250 for r in results)


def test_priority_lanes_byte_identical_to_event_engine():
    """The priority slice pickles identically on both engines."""
    cells = priority_cells()
    _pickles_alike(run_lanes(cells), event_pass(cells))


def test_priority_pass_event_engine(benchmark):
    """Recorded event-engine pass over the priority slice."""
    cells = priority_cells()
    results = benchmark.pedantic(lambda: event_pass(cells), rounds=5, iterations=1)
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
    _pickles_alike(run_lanes(cells), event_pass(cells))


def test_fault_pass_event_engine(benchmark):
    """Recorded event-engine pass over the fault-model slice."""
    cells = fault_cells()
    results = benchmark.pedantic(lambda: event_pass(cells), rounds=5, iterations=1)
    assert len(results) == len(cells)


def test_fault_pass_batch_lanes(benchmark):
    """Recorded lane-engine pass over the fault-model slice."""
    cells = fault_cells()
    results = benchmark.pedantic(lambda: run_lanes(cells), rounds=5, iterations=1)
    assert all(r.collector.total_recorded == 250 for r in results)


def test_shared_pack_byte_identical_to_one_cell_packs():
    """A cell pickles the same in the six-protocol pack and alone."""
    cells = shared_tape_cells()
    _pickles_alike(run_lanes(cells), one_cell_packs(cells))


def test_shared_pass_one_cell_packs(benchmark):
    """Recorded pass of the six lane protocols as six one-cell packs."""
    cells = shared_tape_cells()
    results = benchmark.pedantic(lambda: one_cell_packs(cells), rounds=7, iterations=1)
    assert all(r.collector.total_recorded == 1050 for r in results)


def test_shared_pass_one_pack(benchmark):
    """Recorded pass of the same six cells as one lane pack."""
    cells = shared_tape_cells()
    results = benchmark.pedantic(lambda: run_lanes(cells), rounds=7, iterations=1)
    assert all(r.collector.total_recorded == 1050 for r in results)


def test_stateful_pack_byte_identical_to_one_cell_packs():
    """A bursty or two-class cell pickles the same in the pack and alone."""
    cells = stateful_tape_cells()
    _pickles_alike(run_lanes(cells), one_cell_packs(cells))


def test_stateful_pass_one_cell_packs(benchmark):
    """Recorded pass of the bursty and two-class cells as one-cell packs."""
    cells = stateful_tape_cells()
    results = benchmark.pedantic(lambda: one_cell_packs(cells), rounds=25, iterations=1)
    assert all(r.collector.total_recorded == 250 for r in results)


def test_stateful_pass_one_pack(benchmark):
    """Recorded pass of the same cells as one lane pack."""
    cells = stateful_tape_cells()
    results = benchmark.pedantic(lambda: run_lanes(cells), rounds=25, iterations=1)
    assert all(r.collector.total_recorded == 250 for r in results)

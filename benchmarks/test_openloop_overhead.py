"""Open-loop arrival layer: equal budgets and recorded sweeps.

The arrival layer moved workload generation from closed-loop think
timers (one exponential draw per completion) to free-running arrival
clocks — per-draw MMPP phase walks, outstanding-request accounting, and
the priority-class coin flip.  All of that runs once per request on the
event engine's hot path, so the honest measure is *per-completion cost*:
the ``openloop_overhead`` row of ``gates.py`` holds an open-loop bursty
two-class sweep under 1.5x the closed-loop sweep it grew out of, both on
the event engine.  The tests here check that the two sweeps complete
the same budget and record each sweep's median.
"""

from gates import SWEEP_SETTINGS, closed_cells, event_pass, open_cells


def test_both_sweeps_complete_the_same_budget():
    """Equal recorded completions per cell — the ratio is per-completion."""
    closed = event_pass(closed_cells())
    opened = event_pass(open_cells())
    budgets = {r.collector.total_recorded for r in closed + opened}
    assert budgets == {
        SWEEP_SETTINGS.batches * SWEEP_SETTINGS.batch_size + SWEEP_SETTINGS.warmup
    }


def test_sweep_pass_closed_loop_paired(benchmark):
    """Recorded median of the closed-loop event sweep."""
    results = benchmark.pedantic(lambda: event_pass(closed_cells()), rounds=5, iterations=1)
    assert len(results) == 6


def test_sweep_pass_open_loop(benchmark):
    """Recorded median of the open-loop bursty two-class event sweep."""
    results = benchmark.pedantic(lambda: event_pass(open_cells()), rounds=5, iterations=1)
    assert len(results) == 6

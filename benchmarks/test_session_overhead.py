"""Session layer on the peak-contention grid: routing and a recorded pass.

The session refactor routed every entry point through ``plan_runs`` →
``execute_plan`` (request resolution, cache-key hashing when a cache is
configured, route classification, outcome assembly).  That machinery
runs once per cell, so its cost is most visible where cells are
cheapest relative to their count: the grid the lane-engine speedup gate
times.  The ``session_overhead`` row of ``gates.py`` times a cacheless
:class:`repro.session.session.Session` gather of that grid against the
raw :func:`repro.engine.batch.run_lanes` pass and holds the difference
under 2%.  The tests here check that the session really routes the grid
through lanes, to the same results, and record the routed pass's median
(the raw pass is ``test_grid_batch.py::test_grid_pass_batch_lanes``).
"""

from gates import grid_cells, requests_for

from repro.engine.batch import run_lanes
from repro.session import Session


def _session_pass(cells):
    return [outcome.result for outcome in Session(jobs=1).run_requests(requests_for(cells))]


def test_session_routes_the_grid_through_lanes():
    """The whole grid must plan onto the lane route — the gate times
    orchestration, not an accidental per-cell fallback."""
    cells = grid_cells()
    session = Session(jobs=1)
    outcomes = session.run_requests(requests_for(cells))
    assert [outcome.route for outcome in outcomes] == ["lanes"] * len(cells)
    assert session.stats.batch_replications == len(cells)


def test_session_grid_results_match_raw_engine():
    cells = grid_cells()
    for ours, theirs in zip(_session_pass(cells), run_lanes(cells)):
        assert ours.collector.agent_totals == theirs.collector.agent_totals


def test_grid_pass_session_routed(benchmark):
    """Recorded median of the session-routed grid pass."""
    cells = grid_cells()
    results = benchmark.pedantic(lambda: _session_pass(cells), rounds=5, iterations=1)
    assert len(results) == len(cells)
    assert all(r.collector.total_recorded == 1050 for r in results)

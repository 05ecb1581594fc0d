"""Wall-clock demonstrations of a session's two sweep speed levers.

Not pytest-benchmark calibrated runs: each is a single end-to-end Table
4.1 regeneration, timed (the parallel case) or instrumented (the cache
case).  Both assert that the fast path produces *identical* tables, not
merely similar ones.

Run via ``make bench`` or directly::

    PYTHONPATH=src python -m pytest benchmarks/test_sweep_parallel.py -s
"""

import os
import time

import pytest

from repro.experiments import table_4_1
from repro.experiments.cache import ResultCache
from repro.experiments.scale import SCALES
from repro.session import Session

SCALE = SCALES["quick"]


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="the 4-worker speedup target needs at least 4 cores",
)
def test_table_4_1_four_workers_beat_serial():
    """Full Table 4.1 with 4 workers: >= 2.5x faster, identical output."""
    serial_started = time.perf_counter()
    serial = table_4_1.run(scale=SCALE, executor=Session(jobs=1))
    serial_elapsed = time.perf_counter() - serial_started

    parallel_session = Session(jobs=4)
    parallel_started = time.perf_counter()
    parallel = table_4_1.run(scale=SCALE, executor=parallel_session)
    parallel_elapsed = time.perf_counter() - parallel_started

    assert parallel_session.stats.parallel_batches > 0
    assert [panel.render() for panel in parallel] == [
        panel.render() for panel in serial
    ]
    speedup = serial_elapsed / parallel_elapsed
    print(
        f"\ntable 4.1: serial {serial_elapsed:.1f}s, "
        f"4 workers {parallel_elapsed:.1f}s ({speedup:.2f}x)"
    )
    assert speedup >= 2.5


def test_table_4_1_warm_cache_executes_zero_simulations(tmp_path):
    """A warm-cache rerun replays every cell; no simulation executes."""
    cold = Session(jobs=1, cache=ResultCache(tmp_path))
    cold_panel = table_4_1.run_panel(10, scale=SCALE, executor=cold)
    assert cold.stats.executed > 0
    assert cold.stats.cache_hits == 0

    warm = Session(jobs=1, cache=ResultCache(tmp_path))
    warm_panel = table_4_1.run_panel(10, scale=SCALE, executor=warm)
    assert warm.stats.executed == 0
    assert warm.stats.cache_hits == cold.stats.executed
    assert warm_panel.render() == cold_panel.render()

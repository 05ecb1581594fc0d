#!/usr/bin/env python
"""Count the bytecodes the lane engine runs per completion, by function.

Runs one fixed slice of the paper grid through
:func:`repro.engine.batch.run_lanes` under a ``sys.settrace`` tracer
with opcode events on, and prints the bytecodes each Python function
executed divided by the completions the slice recorded.  The slice is
the N = 30 column of the cold paper grid at base seed 3: the six lane
protocols x total load 0.5, 2.0 and 7.5 x two seeds (300 and 301),
built with ``equal_load`` and run for a warm-up of 50 and two batches
of 500 completions, 36 cells in all.

Bytecode counts do not depend on the host's speed or load, so two runs
print the same table, and a change to the dispatch loop shows up as a
difference of counts even where timings drown in noise.  Functions
written in C (heap operations, list appends, ``random``) run no
bytecodes and do not appear.  Counts differ between Python versions.
The traced run takes about 5 s with CPython 3.11 on a 2-vCPU host.

Usage::

    PYTHONPATH=src python scripts/count_ops.py
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.engine.batch import run_lanes  # noqa: E402
from repro.experiments.runner import SimulationSettings  # noqa: E402
from repro.workload.scenarios import equal_load  # noqa: E402

#: The lane engine's protocols, one per kernel.
PROTOCOLS = ("rr", "rr-impl2", "rr-impl3", "fcfs", "fcfs-aincr", "fixed")
LOADS = (0.5, 2.0, 7.5)
AGENTS = 30
#: Base seed 3 gives cell seeds 300 and 301.
SEEDS = (300, 301)
SETTINGS = SimulationSettings(batches=2, batch_size=500, warmup=50)
#: Functions listed by name; the rest are summed in one row.
TOP = 15


def slice_cells():
    """The 36 cells of the counted slice, in grid order."""
    return [
        (equal_load(AGENTS, load), protocol, replace(SETTINGS, seed=seed))
        for load in LOADS
        for protocol in PROTOCOLS
        for seed in SEEDS
    ]


def count_opcodes(func, *args):
    """Run ``func(*args)`` traced; return its result and the bytecodes
    executed per code object."""
    tallies = {}

    def trace(frame, event, arg):
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        code = frame.f_code
        tally = tallies.get(code)
        if tally is None:
            tally = tallies[code] = [0]

        def local(frame, event, arg):
            if event == "opcode":
                tally[0] += 1
            return local

        return local

    sys.settrace(trace)
    try:
        result = func(*args)
    finally:
        sys.settrace(None)
    return result, {code: tally[0] for code, tally in tallies.items()}


def _name(code) -> str:
    module = Path(code.co_filename).stem
    return f"{module}.{getattr(code, 'co_qualname', code.co_name)}"


def main() -> int:
    cells = slice_cells()
    results, counts = count_opcodes(run_lanes, cells)
    completions = sum(result.collector.total_recorded for result in results)
    by_name = {}
    for code, count in counts.items():
        name = _name(code)
        by_name[name] = by_name.get(name, 0) + count
    total = sum(by_name.values())
    ranked = sorted(by_name.items(), key=lambda item: (-item[1], item[0]))

    print(f"{len(cells)} cells, {completions} completions, {total} bytecodes")
    print(f"{'function':<60} {'per completion':>14} {'share':>7}")
    for name, count in ranked[:TOP]:
        print(f"{name:<60} {count / completions:>14.1f} {count / total:>7.1%}")
    rest = sum(count for _, count in ranked[TOP:])
    if rest:
        print(f"{'(other functions)':<60} {rest / completions:>14.1f} {rest / total:>7.1%}")
    print(f"{'total':<60} {total / completions:>14.1f} {1:>7.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

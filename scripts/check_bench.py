#!/usr/bin/env python
"""CI bench guard: median drift plus the grid-wide speedup gate.

Runs the engine benchmarks fresh (to a throwaway file — the committed
``BENCH_engine.json`` is never overwritten here) and applies eleven
checks:

1. **Median drift** — every median is compared against the committed
   baseline with a generous 50% tolerance.  The committed file is a
   developer-machine snapshot and CI runners are slower and noisier, so
   this check is deliberately coarse: it exists to catch
   order-of-magnitude regressions (an accidentally quadratic loop, a
   lost fast path), not single-digit drift — that is what
   ``scripts/run_benchmarks.py --compare`` at its default tolerance is
   for, on quiet hardware.

2. **Grid speedup** — the recorded baseline must demonstrate at least
   10x end-to-end over the full
   peak-contention grid, and the fresh run must stay above that bar
   scaled by the drift tolerance (so 5x at the default 50%).  The
   ratio is machine-relative, so the fresh check mostly absorbs runner
   noise; the exact >= 10x bar is enforced where timing is reliable —
   on the recorded baseline, and by
   ``benchmarks/test_grid_batch.py::test_grid_batch_speedup_gate``
   with its interleaved min-of-k discipline.

3. **Session overhead** — the recorded baseline's session-routed grid
   pass must sit within 2% of the raw
   lane-engine pass.  Orchestration (planning, routing, outcome
   assembly) is pure bookkeeping; if it shows up in grid timings, the
   session layer grew a per-cell cost it must not have.  The exact bar
   is enforced on the recorded baseline and by
   ``benchmarks/test_session_overhead.py::test_session_overhead_gate``;
   the fresh run gets the same drift-scaled slack as the speedup.

4. **Service overhead** — the recorded baseline's service-routed
   cached grid pass must sit within 50% of the direct session gather.  The job layer's cost is a fixed
   sub-millisecond handoff per gather; a per-cell cost on the hit path
   (re-serialization, re-hashing, per-cell events) lands hundreds of
   percent above the bar.  The exact bar is enforced on the recorded
   baseline and by ``benchmarks/test_service_overhead.py::
   test_service_overhead_gate``; the fresh run gets drift-scaled slack.

5. **Open-loop overhead** — the recorded baseline's open-loop bursty
   sweep must cost at most 50% (i.e. 1.5x) more per completion than the paired closed-loop sweep.  The
   arrival layer's MMPP phase walks and class coin flips run once per
   request on the event engine's hot path; this bar keeps them there.
   The exact bar is enforced on the recorded baseline and by
   ``benchmarks/test_openloop_overhead.py::test_openloop_overhead_gate``;
   the fresh run gets drift-scaled slack.

6. **Synchronous speedup** — the recorded baseline's lane pass over the
   synchronous-bus slice must be at least 2.5x faster than the same
   slice on the event engine.  The
   exact bar is enforced on the recorded baseline and by
   ``benchmarks/test_grid_batch.py::test_sync_grid_speedup_gate``; the
   fresh run gets drift-scaled slack.

7. **Priority speedup** — the same fixed 2.5x bar for the lane pass
   over the two-class priority slice (§2.4), enforced exactly on the
   recorded baseline and by
   ``benchmarks/test_grid_batch.py::test_priority_grid_speedup_gate``;
   the fresh run gets drift-scaled slack.

8. **Fault speedup** — the same fixed 2.5x bar for the lane pass over
   the robustness grid's fault-model slice (``rr-faulty-register`` and
   ``fcfs-glitchable`` under their fault plans, §3.1/§3.2), enforced
   exactly on the recorded baseline and by
   ``benchmarks/test_grid_batch.py::test_fault_grid_speedup_gate``; the
   fresh run gets drift-scaled slack.

9. **Hot hit speedup** — the recorded baseline's hot service hit pass
   over a warmed 30-agent grid (interned decode, memoized key, the
   ``ResultCache`` hot tier, a job answered at admission) must be at
   least 10x faster than the cold pass (fresh cache instance, emptied
   intern table).  Switching off the hot tier, the interning or the
   key memo measured 2.8x, 1.4x and 4.9x.
   The exact bar is enforced on the recorded baseline and by
   ``benchmarks/test_service_hit.py::test_hot_hit_speedup_gate``; the
   fresh run gets drift-scaled slack.

10. **Shared tape speedup** — the recorded baseline's one lane pack of
    the six lane protocols at one (N, load, seed) must be at least 1.1x
    faster than the same six cells as six one-cell packs: the pack
    seeds and draws each agent's think-time stream once.  The exact
    bar is enforced on the recorded baseline and by
    ``benchmarks/test_grid_batch.py::test_shared_tape_speedup_gate``;
    the fresh run gets drift-scaled slack.

11. **Stateful tape speedup** — the same for the bursty (MMPP) and
    two-class cells of perfbench's ``grid-event`` at N = 30: one pack of
    ``rr``, ``fcfs`` and ``fcfs-aincr`` must be at least 1.15x faster
    than its six one-cell packs, since the pack seeds and draws each
    MMPP and classed stream once.  The exact bar is enforced on the
    recorded baseline and by
    ``benchmarks/test_grid_batch.py::test_stateful_tape_speedup_gate``;
    the fresh run gets drift-scaled slack.

Each ratio, its benchmark pair and its bar are one row of
``run_benchmarks.GATES``; ``condense`` derives the ratios from the same
rows.

Usage::

    python scripts/check_bench.py [--baseline BENCH_engine.json]
                                  [--tolerance 0.5]
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run_benchmarks import (
    CEILING,
    DEFAULT_OUT,
    FLOOR,
    GATES,
    Gate,
    compare,
    condense,
    run_microbench,
)


def check_gate(gate: Gate, summary: dict, baseline: dict, tolerance: float) -> int:
    """Check one gate's ratio on the baseline (exact bar) and the fresh
    run (bar widened by ``tolerance``); 1 on any regression."""
    bar = gate.bar
    floor = gate.bound == FLOOR
    if floor:
        shown, limit, relation = "{:.2f}x", "{:.1f}x", ">="
        slack = bar * (1.0 - tolerance)
    else:
        shown, limit, relation = "{:+.2%}", "{:.0%}", "<"
        slack = bar * (1.0 + tolerance)
    status = 0

    def report(line: str, regressed: bool) -> None:
        nonlocal status
        print(f"  {line}  <-- REGRESSION" if regressed else f"  {line}")
        status = status or int(regressed)

    recorded = baseline.get(gate.key)
    if recorded is None:
        report(f"{gate.label}: baseline records none", True)
    else:
        report(
            f"{gate.label}: baseline records {shown.format(recorded)} "
            f"(gate {relation} {limit.format(bar)})",
            recorded < bar if floor else recorded >= bar,
        )
    fresh = summary.get(gate.key)
    if fresh is None:
        report(f"{gate.label} (fresh): missing {gate.missing}", True)
    else:
        report(
            f"{gate.label} (fresh): {shown.format(fresh)} "
            f"({gate.bound} {limit.format(slack)} at {tolerance:.0%} tolerance)",
            fresh < slack if floor else fresh >= slack,
        )
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        type=Path,
        default=DEFAULT_OUT,
        help="committed baseline to compare against (default BENCH_engine.json)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.5,
        help="allowed fractional median slowdown (default 0.5, i.e. 1.5x)",
    )
    args = parser.parse_args()

    if not args.baseline.exists():
        print(f"baseline {args.baseline} not found", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory() as tmp:
        raw = run_microbench(Path(tmp) / "raw.json")
    summary = condense(raw)
    print(
        f"bench guard: comparing against {args.baseline} "
        f"(tolerance {args.tolerance:.0%})"
    )
    status = compare(summary, args.baseline, args.tolerance)
    baseline_doc = json.loads(args.baseline.read_text(encoding="utf-8"))
    gate_status = [
        check_gate(gate, summary, baseline_doc, args.tolerance) for gate in GATES
    ]
    return status or max(gate_status)


if __name__ == "__main__":
    sys.exit(main())

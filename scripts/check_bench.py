#!/usr/bin/env python
"""CI bench guard: median drift plus every gate of the gate table.

Runs the engine benchmarks and measures every gate fresh (to memory —
the committed ``BENCH_engine.json`` is never overwritten here), then
applies two kinds of check:

- **Median drift**: every pytest-benchmark median is compared against
  the committed baseline with a generous 50% tolerance.  The committed
  file is a developer-machine snapshot and CI runners are slower and
  noisier, so this check is deliberately coarse: it catches
  order-of-magnitude regressions (an accidentally quadratic loop, a
  lost fast path), not single-digit drift — that is what
  ``scripts/run_benchmarks.py --compare`` at its default tolerance is
  for, on quiet hardware.
- **Gates**: for every row of ``benchmarks/gates.py`` ``GATES`` (its
  ``why`` says what the ratio catches), the baseline must record a
  ratio that meets the row's bar exactly, and the fresh ratio must meet
  the bar widened by the tolerance (a 10x floor becomes 5x, a 2%
  ceiling 3%, at the default 50%).  Both ratios are taken by
  ``gates.measure``, the interleaved min-of-k helper the live gate test
  ``benchmarks/test_gates.py`` holds to the exact bar.

Usage::

    python scripts/check_bench.py [--baseline BENCH_engine.json]
                                  [--tolerance 0.5]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run_benchmarks import DEFAULT_OUT, compare, fresh_summary  # noqa: E402

from gates import FLOOR, GATES, Gate  # noqa: E402


def check_gate(gate: Gate, summary: dict, baseline: dict, tolerance: float) -> int:
    """Check one gate's ratio on the baseline (exact bar) and the fresh
    run (bar widened by ``tolerance``); 1 on any regression."""
    widen = 1.0 - tolerance if gate.bound == FLOOR else 1.0 + tolerance
    slack = gate.bar * widen
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
            f"{gate.label}: baseline records {gate.show(recorded)} "
            f"(gate {gate.relation} {gate.limit(gate.bar)})",
            not gate.holds(recorded),
        )
    fresh = summary.get(gate.key)
    if fresh is None:
        report(f"{gate.label} (fresh): not measured", True)
    else:
        report(
            f"{gate.label} (fresh): {gate.show(fresh)} "
            f"({gate.bound} {gate.limit(slack)} at {tolerance:.0%} tolerance)",
            not gate.holds(fresh, slack),
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

    summary = fresh_summary()
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

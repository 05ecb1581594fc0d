#!/usr/bin/env python
"""Run the engine micro-benchmarks and write BENCH_engine.json.

Invokes ``benchmarks/test_engine_microbench.py`` under pytest-benchmark,
then condenses the raw calibration data to one entry per benchmark
(median / mean / stddev in microseconds) so regressions diff cleanly.

Usage::

    python scripts/run_benchmarks.py [--out BENCH_engine.json]
                                     [--compare BASELINE.json]
                                     [--tolerance 0.15]

``--compare`` exits non-zero if any benchmark's median regressed more
than ``--tolerance`` (fractional) against the given baseline file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = ROOT / "BENCH_engine.json"
BENCH_FILES = [
    "benchmarks/test_engine_microbench.py",
    "benchmarks/test_grid_batch.py",
    "benchmarks/test_session_overhead.py",
    "benchmarks/test_service_overhead.py",
    "benchmarks/test_service_hit.py",
    "benchmarks/test_openloop_overhead.py",
]

#: A gate's bar is a lower bound (the ratio must reach it) or an upper
#: bound (the ratio must stay under it).
FLOOR = "floor"
CEILING = "ceiling"


class Gate(NamedTuple):
    """One recorded ratio: how :func:`condense` derives it from a pair
    of benchmarks, and the bar ``check_bench.py`` holds it to."""

    #: Key of the ratio in ``BENCH_engine.json`` and the fresh summary.
    key: str
    label: str
    #: The benchmark pair, adjacent in its file so the ratio is
    #: drift-free; the numerator is the event-engine or extra-layer pass.
    numerator: str
    denominator: str
    #: Condensed statistic the ratio divides: ``median_us``, or
    #: ``min_us`` (min-over-min strips scheduler and GC noise, which a
    #: median-of-5 ratio of two ~100ms passes cannot at a 2% bar).
    statistic: str
    #: The bound also fixes the form: a FLOOR row records a speedup,
    #: numerator / denominator; a CEILING row records an overhead,
    #: numerator / denominator - 1.
    bound: str
    bar: float
    #: Decimal places the recorded ratio is rounded to.
    digits: int
    #: What a fresh run lacks when the ratio is missing.
    missing: str


GATES = (
    Gate(
        "grid_speedup", "grid speedup",
        "test_grid_pass_event_engine", "test_grid_pass_batch_lanes", "median_us",
        FLOOR, 10.0, 2, "grid benchmarks",
    ),
    Gate(
        "session_overhead", "session overhead",
        "test_grid_pass_session_routed", "test_grid_pass_lanes_paired", "min_us",
        CEILING, 0.02, 4, "session benchmark",
    ),
    Gate(
        "service_overhead", "service overhead",
        "test_grid_pass_cached_service", "test_grid_pass_cached_session", "min_us",
        CEILING, 0.5, 4, "service benchmark",
    ),
    Gate(
        "openloop_overhead", "open-loop overhead",
        "test_sweep_pass_open_loop", "test_sweep_pass_closed_loop_paired", "min_us",
        CEILING, 0.5, 4, "sweep benchmark",
    ),
    Gate(
        "sync_grid_speedup", "synchronous grid speedup",
        "test_sync_pass_event_engine", "test_sync_pass_batch_lanes", "min_us",
        FLOOR, 2.5, 2, "synchronous grid benchmarks",
    ),
    Gate(
        "priority_grid_speedup", "priority grid speedup",
        "test_priority_pass_event_engine", "test_priority_pass_batch_lanes", "min_us",
        FLOOR, 2.5, 2, "priority grid benchmarks",
    ),
    Gate(
        "fault_grid_speedup", "fault grid speedup",
        "test_fault_pass_event_engine", "test_fault_pass_batch_lanes", "min_us",
        FLOOR, 2.5, 2, "fault grid benchmarks",
    ),
    Gate(
        "hot_hit_speedup", "hot hit speedup",
        "test_hit_pass_cold", "test_hit_pass_hot", "min_us",
        FLOOR, 10.0, 1, "service hit benchmarks",
    ),
    Gate(
        "shared_tape_speedup", "shared tape speedup",
        "test_shared_pass_one_cell_packs", "test_shared_pass_one_pack", "min_us",
        FLOOR, 1.1, 2, "shared tape benchmarks",
    ),
    Gate(
        "stateful_tape_speedup", "stateful tape speedup",
        "test_stateful_pass_one_cell_packs", "test_stateful_pass_one_pack", "min_us",
        FLOOR, 1.15, 2, "stateful tape benchmarks",
    ),
)


def run_microbench(raw_path: Path) -> dict:
    """Run pytest-benchmark and return its raw JSON payload."""
    command = [
        sys.executable,
        "-m",
        "pytest",
        *BENCH_FILES,
        "--benchmark-only",
        f"--benchmark-json={raw_path}",
        "-q",
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    subprocess.run(command, cwd=ROOT, env=env, check=True)
    return json.loads(raw_path.read_text(encoding="utf-8"))


def condense(raw: dict) -> dict:
    """One compact entry per benchmark, timings in microseconds."""
    benchmarks = {}
    for bench in raw["benchmarks"]:
        stats = bench["stats"]
        benchmarks[bench["name"]] = {
            "median_us": round(stats["median"] * 1e6, 3),
            "mean_us": round(stats["mean"] * 1e6, 3),
            "stddev_us": round(stats["stddev"] * 1e6, 3),
            "min_us": round(stats["min"] * 1e6, 3),
            "rounds": stats["rounds"],
        }
    summary = {
        "source": BENCH_FILES,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "benchmarks": benchmarks,
    }
    for gate in GATES:
        numerator = benchmarks.get(gate.numerator)
        denominator = benchmarks.get(gate.denominator)
        if numerator and denominator:
            ratio = numerator[gate.statistic] / denominator[gate.statistic]
            if gate.bound == CEILING:
                ratio -= 1.0
            summary[gate.key] = round(ratio, gate.digits)
    return summary


def compare(current: dict, baseline_path: Path, tolerance: float) -> int:
    """Report median deltas vs a baseline; non-zero on regression."""
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))["benchmarks"]
    status = 0
    for name, entry in sorted(current["benchmarks"].items()):
        reference = baseline.get(name)
        if reference is None:
            print(f"  {name}: no baseline entry")
            continue
        delta = entry["median_us"] / reference["median_us"] - 1.0
        marker = ""
        if delta > tolerance:
            marker = "  <-- REGRESSION"
            status = 1
        print(
            f"  {name}: {reference['median_us']:.1f}us -> "
            f"{entry['median_us']:.1f}us ({delta:+.1%}){marker}"
        )
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT, help="output JSON path"
    )
    parser.add_argument(
        "--compare",
        type=Path,
        default=None,
        metavar="BASELINE",
        help="fail if a median regressed past --tolerance vs this file",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.15,
        help="allowed fractional median slowdown (default 0.15)",
    )
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        raw = run_microbench(Path(tmp) / "raw.json")
    summary = condense(raw)
    args.out.write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {args.out}")
    for name, entry in sorted(summary["benchmarks"].items()):
        print(f"  {name}: median {entry['median_us']:.1f}us")

    if args.compare is not None:
        print(f"comparing against {args.compare} (tolerance {args.tolerance:.0%})")
        return compare(summary, args.compare, args.tolerance)
    return 0


if __name__ == "__main__":
    sys.exit(main())

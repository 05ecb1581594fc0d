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

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = ROOT / "BENCH_engine.json"
BENCH_FILES = [
    "benchmarks/test_engine_microbench.py",
    "benchmarks/test_grid_batch.py",
    "benchmarks/test_session_overhead.py",
    "benchmarks/test_service_overhead.py",
    "benchmarks/test_openloop_overhead.py",
]
#: Backwards-compatible alias (pre-grid callers imported the scalar).
BENCH_FILE = BENCH_FILES[0]

#: The grid benchmark pair whose median ratio is the recorded grid
#: speedup; ``check_bench.py`` gates on it.
GRID_EVENT = "test_grid_pass_event_engine"
GRID_BATCH = "test_grid_pass_batch_lanes"

#: The synchronous-bus slice on both engines (adjacent in
#: ``test_grid_batch.py``); their minima yield the recorded
#: ``sync_grid_speedup``.
SYNC_EVENT = "test_sync_pass_event_engine"
SYNC_BATCH = "test_sync_pass_batch_lanes"

#: The two-class priority slice on both engines (adjacent in
#: ``test_grid_batch.py``); their minima yield the recorded
#: ``priority_grid_speedup``.
PRIORITY_EVENT = "test_priority_pass_event_engine"
PRIORITY_BATCH = "test_priority_pass_batch_lanes"

#: The session-routed grid pass and its *paired* raw-lanes baseline
#: (recorded back-to-back in ``test_session_overhead.py`` so the ratio
#: is drift-free); their medians yield the ``session_overhead``
#: fraction ``check_bench.py`` gates.
GRID_SESSION = "test_grid_pass_session_routed"
GRID_SESSION_BASE = "test_grid_pass_lanes_paired"

#: The service-routed cached grid pass and its paired direct-session
#: baseline (adjacent in ``test_service_overhead.py``); their minima
#: yield the ``service_overhead`` fraction ``check_bench.py`` gates.
GRID_SERVICE = "test_grid_pass_cached_service"
GRID_SERVICE_BASE = "test_grid_pass_cached_session"

#: The open-loop event sweep and its paired closed-loop baseline
#: (adjacent in ``test_openloop_overhead.py``, same completion budget);
#: their minima yield the per-completion ``openloop_overhead`` fraction
#: ``check_bench.py`` gates.
SWEEP_OPENLOOP = "test_sweep_pass_open_loop"
SWEEP_OPENLOOP_BASE = "test_sweep_pass_closed_loop_paired"


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


def engine_metadata() -> dict:
    """Record the lane-engine environment the timings were taken in.

    Speedups are only comparable like-for-like: a baseline recorded at
    another lane width describes a different engine configuration, so
    the snapshot carries enough to tell.
    """
    sys.path.insert(0, str(ROOT / "src"))
    from repro.engine.batch import LANE_WIDTH

    return {"lane_width": LANE_WIDTH}


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
        "engine": engine_metadata(),
        "benchmarks": benchmarks,
    }
    grid_event = benchmarks.get(GRID_EVENT)
    grid_batch = benchmarks.get(GRID_BATCH)
    if grid_event and grid_batch:
        summary["grid_speedup"] = round(
            grid_event["median_us"] / grid_batch["median_us"], 2
        )
    for key, event_name, batch_name in (
        ("sync_grid_speedup", SYNC_EVENT, SYNC_BATCH),
        ("priority_grid_speedup", PRIORITY_EVENT, PRIORITY_BATCH),
    ):
        slice_event = benchmarks.get(event_name)
        slice_batch = benchmarks.get(batch_name)
        if slice_event and slice_batch:
            summary[key] = round(slice_event["min_us"] / slice_batch["min_us"], 2)
    grid_session = benchmarks.get(GRID_SESSION)
    grid_session_base = benchmarks.get(GRID_SESSION_BASE)
    if grid_session and grid_session_base:
        # Min-over-min, the same discipline as the in-test overhead
        # gate: the minimum of each series estimates the true cost with
        # scheduler/GC noise stripped, which a median-of-5 ratio of two
        # ~100ms passes cannot do at the 2% resolution the gate needs.
        summary["session_overhead"] = round(
            grid_session["min_us"] / grid_session_base["min_us"] - 1.0, 4
        )
    grid_service = benchmarks.get(GRID_SERVICE)
    grid_service_base = benchmarks.get(GRID_SERVICE_BASE)
    if grid_service and grid_service_base:
        summary["service_overhead"] = round(
            grid_service["min_us"] / grid_service_base["min_us"] - 1.0, 4
        )
    sweep_open = benchmarks.get(SWEEP_OPENLOOP)
    sweep_open_base = benchmarks.get(SWEEP_OPENLOOP_BASE)
    if sweep_open and sweep_open_base:
        summary["openloop_overhead"] = round(
            sweep_open["min_us"] / sweep_open_base["min_us"] - 1.0, 4
        )
    return summary


def compare(current: dict, baseline_path: Path, tolerance: float) -> int:
    """Report median deltas vs a baseline; non-zero on regression."""
    baseline_doc = json.loads(baseline_path.read_text(encoding="utf-8"))
    baseline = baseline_doc["benchmarks"]
    baseline_engine = baseline_doc.get("engine")
    if baseline_engine is not None and baseline_engine != current.get("engine"):
        print(
            "  note: engine environment differs from baseline "
            f"(baseline {baseline_engine}, current {current.get('engine')}); "
            "medians are not like-for-like"
        )
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

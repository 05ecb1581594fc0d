#!/usr/bin/env python
"""Run the engine benchmarks and write BENCH_engine.json.

Two measurements go into the file:

- the pytest-benchmark entries of the ``BENCH_FILES`` below, condensed
  to one entry per benchmark (median / mean / stddev / min in
  microseconds) so regressions diff cleanly;
- the ratio of every row of ``benchmarks/gates.py`` ``GATES``, measured
  in this process by ``gates.measure``, the interleaved min-of-k helper
  the live gate test ``benchmarks/test_gates.py`` uses.

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
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import gates  # noqa: E402

DEFAULT_OUT = ROOT / "BENCH_engine.json"
BENCH_FILES = [
    "benchmarks/test_engine_microbench.py",
    "benchmarks/test_grid_batch.py",
    "benchmarks/test_session_overhead.py",
    "benchmarks/test_service_overhead.py",
    "benchmarks/test_service_hit.py",
    "benchmarks/test_openloop_overhead.py",
]


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
    return {
        "source": BENCH_FILES,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "benchmarks": benchmarks,
    }


def fresh_summary() -> dict:
    """Run the benchmarks, then measure every gate: the summary this
    script writes and ``check_bench.py`` checks."""
    with tempfile.TemporaryDirectory() as tmp:
        summary = condense(run_microbench(Path(tmp) / "raw.json"))
    for gate in gates.GATES:
        summary[gate.key] = round(gates.measure(gate), gate.digits)
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

    summary = fresh_summary()
    args.out.write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {args.out}")
    for name, entry in sorted(summary["benchmarks"].items()):
        print(f"  {name}: median {entry['median_us']:.1f}us")
    for gate in gates.GATES:
        print(f"  {gate.key}: {gate.show(summary[gate.key])}")

    if args.compare is not None:
        print(f"comparing against {args.compare} (tolerance {args.tolerance:.0%})")
        return compare(summary, args.compare, args.tolerance)
    return 0


if __name__ == "__main__":
    sys.exit(main())

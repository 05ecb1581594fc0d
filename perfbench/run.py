#!/usr/bin/env python3
"""The benchmark command.

Run from the root of a checkout::

    python3 perfbench/run.py --workload grid-lanes --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics, ``--trace 1`` runs the
same work through timed wrappers and reports the per-layer metrics
(their names and units come from ``BENCHMARK.json``).  Human-readable
lines come first; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 only when every output check passed.

Set-up is repeated ``SETUP_REPEATS`` times and its median reported as
``setup_s``, plus the one-off import time.  Every time reported is taken
at a reference host speed (see ``arbbench/hostspeed.py``); the host's
measured slowdown is printed as a text line.  Scratch files live under
``.perfbench-work/`` and are removed on exit; with ``--trace 1`` the
recorded spans are written to ``.perfbench-out/``.
"""

import argparse
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

    import_started = time.perf_counter()
    from arbbench.hostspeed import calibrated, slowdown
    from arbbench.measure import peak_rss_mb, pin_cpus
    from arbbench.spans import Tracer
    from arbbench.workloads import WORKLOADS

    import_s = time.perf_counter() - import_started
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    workdir_root = ROOT / ".perfbench-work"
    workdir_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=workdir_root))
    tracer = Tracer()
    workload = WORKLOADS[args.workload](
        args.seed, args.seconds, bool(args.trace), workdir, tracer
    )
    try:
        # Set-up times are taken at the reference host speed, like every
        # other time (arbbench.hostspeed): the host is sampled after the
        # imports and after each set-up, on the CPU the set-up runs on.
        pin_cpus()
        host = [slowdown()]
        setups = []
        for __ in range(SETUP_REPEATS):
            started = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - started)
            host.append(slowdown())
        report = workload.run()
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(workdir_root.iterdir()):
            workdir_root.rmdir()

    metrics = dict(report.metrics)
    if not args.trace:
        metrics["setup_s"] = import_s / host[0] + statistics.median(calibrated(setups, host))
        metrics["peak_rss_mb"] = peak_rss_mb()
    else:
        out = ROOT / ".perfbench-out"
        out.mkdir(exist_ok=True)
        tracer.write_jsonl(out / f"spans-{args.workload}-seed{args.seed}.jsonl")

    chosen = spec["per_layer"] if args.trace else spec["end_to_end"]
    printed = {
        entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]}
        for entry in chosen
    }
    failed_frac = report.failed / report.attempted if report.attempted else 1.0
    correct = report.failed == 0 and report.attempted > 0
    for problem in report.problems:
        print(f"check failed: {problem}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"outputs_sha256 {report.digest}")
    print(f"failed_frac {failed_frac:.6g} ({report.failed}/{report.attempted})")
    for name, entry in printed.items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    for note in report.notes:
        print(note)
    slowdowns = host + report.slowdowns
    print(
        f"host slowdown median {statistics.median(slowdowns):.3f}, "
        f"range {min(slowdowns):.3f}-{max(slowdowns):.3f} ({len(slowdowns)} samples)"
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": report.attempted,
                "failed": report.failed,
                "metrics": printed,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

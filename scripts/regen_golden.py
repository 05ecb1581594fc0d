#!/usr/bin/env python
"""Regenerate the golden arbitration traces under tests/golden/.

Each golden scenario (declared in ``repro.observability.golden``) runs
afresh on every engine.  The event engine is the reference: its
canonical JSONL encoding replaces the checked-in file, but only when
the lane engine (``batch``) reproduces it byte for byte.  When the
engines disagree nothing is written, and the message names the engine
that drifted.  For every file that changes, a unified diff of the
drifted lines is printed so an intentional engine change can be
reviewed line by line before committing the new goldens.

Usage::

    PYTHONPATH=src python scripts/regen_golden.py [--check] [NAME ...]

``--check`` compares without writing and exits non-zero on any drift on
any engine — the same comparison
``tests/conformance/test_golden_traces.py`` makes, usable as a
pre-commit probe.  Naming scenarios limits the run to them.
"""

from __future__ import annotations

import argparse
import difflib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.observability.golden import golden_names, golden_trace_lines  # noqa: E402
from repro.session import ENGINES  # noqa: E402

GOLDEN_DIR = ROOT / "tests" / "golden"
#: The engine whose run is written; every other engine must match it.
REFERENCE = "event"


def trace_diff(old: list, new: list, fromfile: str, tofile: str) -> str:
    """Unified diff between two renderings of one golden trace."""
    return "\n".join(
        difflib.unified_diff(old, new, fromfile=fromfile, tofile=tofile, lineterm="")
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "names",
        nargs="*",
        default=None,
        help="golden scenarios to regenerate (default: all)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare only; exit 1 if any stored trace drifted",
    )
    args = parser.parse_args(argv)
    names = args.names or list(golden_names())
    unknown = sorted(set(names) - set(golden_names()))
    if unknown:
        parser.error(f"unknown golden scenario(s) {unknown}; have {list(golden_names())}")

    drifted = 0
    for name in names:
        path = GOLDEN_DIR / f"{name}.jsonl"
        stored = f"tests/golden/{name}.jsonl (stored)"
        old = path.read_text(encoding="utf-8").splitlines() if path.exists() else None
        runs = {engine: golden_trace_lines(name, engine) for engine in ENGINES}
        new = runs[REFERENCE]
        if any(lines != new for lines in runs.values()):
            # The engines disagree.  Blame whichever left the stored
            # trace; when it matches neither, whichever left the event
            # engine's run.
            drifted += 1
            if old in runs.values():
                base, source, label = old, "the stored trace", stored
            else:
                base, source = new, f"the {REFERENCE} engine"
                label = f"{name} on the {REFERENCE} engine"
            for engine, lines in runs.items():
                if lines != base:
                    print(f"{name}: {engine} engine DRIFTED from {source}; not written")
                    print(trace_diff(base, lines, label, f"{name} on the {engine} engine"))
            continue
        if old == new:
            print(f"{name}: unchanged ({len(new)} events on {', '.join(ENGINES)})")
            continue
        if old is None:
            print(f"{name}: new golden ({len(new)} events)")
        else:
            print(f"{name}: DRIFTED on every engine ({len(old)} -> {len(new)} events)")
            print(trace_diff(old, new, stored, f"tests/golden/{name}.jsonl (regenerated)"))
        if args.check:
            drifted += 1
        else:
            GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
            path.write_text("\n".join(new) + "\n", encoding="utf-8")
            print(f"{name}: wrote {path.relative_to(ROOT)}")
    if drifted:
        print(f"{drifted} golden trace(s) drifted", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

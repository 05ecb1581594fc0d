#!/usr/bin/env python
"""Count the bytecodes a simulation engine runs per completion.

``--engine lanes`` (the default) runs one fixed slice of the paper grid
through :func:`repro.engine.batch.run_lanes` under a ``sys.settrace``
tracer with opcode events on, and prints the bytecodes each Python
function executed divided by the completions the slice recorded.  The
slice is the N = 30 column of the cold paper grid at base seed 3: the
six lane protocols x total load 0.5, 2.0 and 7.5 x two seeds (300 and
301), built with ``equal_load`` and run for a warm-up of 50 and two
batches of 500 completions, 36 cells in all.

``--slice grid-event`` counts the lane engine on the 56 cells of the
benchmark's ``grid-event`` workload at base seed 3 instead, built here
the same way: N = 10 and 30, two seeds each, and per seed the open-loop
Poisson, bursty MMPP, two-class priority and synchronous-bus (clock
period 0.25) cells of ``rr``, ``fcfs`` and ``fcfs-aincr``, plus the
fault-injected ``rr-faulty-register`` and ``fcfs-glitchable`` cells of
the robustness grid's plans at rate 0.01.  They run for a warm-up of 50
and two batches of 100 completions.  ``--by-kind`` splits that count by
cell kind (:data:`KINDS`): classed, clocked, faulted, open-loop and
bursty.  Every bytecode counts to the lane being built or run when it
ran, from the lane's build to the next lane's; those before the first
lane's build (checking and grouping the cells, opening the pack) form
a row of their own.  The kind rows sum to the slice's total, and each
kind's function rows sum to that kind's total.  ``--by-protocol`` splits
either lane slice the same way, one row per protocol.

``--engine event`` runs the 18 cells of the lanes-against-event
cross-check instead: one per lane protocol x N = 10, 30 and 64 at load
0.5 and seed 300, the same run length, each through the event engine
(``run_cell`` with ``engine="event"``).  Besides the functions it prints
the same bytecodes by phase (:data:`PHASES`): the executive and
calendar, the bus handlers, the arbiter, the agents, the collector and
everything else; the phase rows sum to the total.

Bytecode counts do not depend on the host's speed or load, so two runs
print the same table, and a change to the dispatch loop shows up as a
difference of counts even where timings drown in noise.  Functions
written in C (heap operations, list appends, ``random``) run no
bytecodes and do not appear.  Counts differ between Python versions.
With CPython 3.11 on a 2-vCPU host the lane slices take a few
seconds traced, the event slice about 10 s.

Usage::

    PYTHONPATH=src python scripts/count_ops.py [--slice paper|grid-event]
    PYTHONPATH=src python scripts/count_ops.py --slice grid-event --by-kind
    PYTHONPATH=src python scripts/count_ops.py [--slice grid-event] --by-protocol
    PYTHONPATH=src python scripts/count_ops.py --engine event
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.bus.timing import BusTiming  # noqa: E402
from repro.engine.batch import _Replication, run_lanes  # noqa: E402
from repro.experiments.robustness import fault_plan_for  # noqa: E402
from repro.experiments.runner import SimulationSettings  # noqa: E402
from repro.experiments.scale import Scale  # noqa: E402
from repro.session.single import run_cell  # noqa: E402
from repro.workload.arrivals import bursty_equal_load, two_class_priority_load  # noqa: E402
from repro.workload.scenarios import equal_load, open_loop_equal_load  # noqa: E402

#: The lane engine's protocols, one per kernel.
PROTOCOLS = ("rr", "rr-impl2", "rr-impl3", "fcfs", "fcfs-aincr", "fixed")
LOADS = (0.5, 2.0, 7.5)
AGENTS = 30
#: Base seed 3 gives cell seeds 300 and 301.
SEEDS = (300, 301)
SETTINGS = SimulationSettings(batches=2, batch_size=500, warmup=50)
#: Functions listed by name; the rest are summed in one row.
TOP = 15

#: The event slice's bus widths; its cells run at the first load and seed.
EVENT_AGENTS = (10, 30, 64)

#: The ``grid-event`` slice: its run length, bus widths, the protocols
#: of its open-loop, bursty, priority and synchronous cells, its
#: fault-injected protocols and their fault rate, and the fixed seeds of
#: its closed-loop cells (base seed 3 gives the others 300 and 301).
GRID_EVENT_SETTINGS = SimulationSettings(batches=2, batch_size=100, warmup=50)
GRID_EVENT_AGENTS = (10, 30)
GRID_EVENT_PROTOCOLS = ("rr", "fcfs", "fcfs-aincr")
GRID_EVENT_FAULTY = ("rr-faulty-register", "fcfs-glitchable")
GRID_EVENT_FAULT_RATE = 0.01
GRID_EVENT_FIXED_SEEDS = (12345, 12346)

#: Event-engine phases, by the package path (under ``repro/``) of the
#: module a function is defined in; the first matching prefix wins.  A
#: dataclass's generated ``__init__`` counts where its class is defined.
PHASES = (
    ("executive + calendar", ("engine/simulator",)),
    ("bus handlers", ("bus/model", "bus/timing", "bus/watchdog")),
    ("arbiter", ("core/", "protocols/", "signals/", "baselines/")),
    ("agents", ("bus/agent", "workload/")),
    ("collector", ("stats/", "bus/records")),
)
OTHER = "other"

#: The ``grid-event`` cell kinds ``--by-kind`` counts apart, and the row
#: for the bytecodes run before a pack's first lane.
KINDS = ("classed", "clocked", "faulted", "open-loop", "bursty")
PACK = "(pack set-up)"


def cell_kind(scenario, protocol, settings) -> str:
    """The :data:`KINDS` entry of a ``grid-event`` cell: the fault-model
    protocols' cells are faulted, whether or not their plan drew a
    fault; the bursty cells are the open-loop MMPP ones."""
    if protocol in GRID_EVENT_FAULTY:
        return "faulted"
    if settings.timing.synchronous:
        return "clocked"
    if any(spec.priority_fraction > 0.0 for spec in scenario.agents):
        return "classed"
    if any(spec.interrequest.stateful for spec in scenario.agents):
        return "bursty"
    return "open-loop"


def slice_cells():
    """The 36 cells of the counted slice, in grid order."""
    return [
        (equal_load(AGENTS, load), protocol, replace(SETTINGS, seed=seed))
        for load in LOADS
        for protocol in PROTOCOLS
        for seed in SEEDS
    ]


def grid_event_cells():
    """The 56 cells of the ``grid-event`` slice, in the workload's order."""
    length = GRID_EVENT_SETTINGS
    scale = Scale("bench", length.batches, length.batch_size, length.warmup)
    cells = []
    for agents in GRID_EVENT_AGENTS:
        for seed, fixed_seed in zip(SEEDS, GRID_EVENT_FIXED_SEEDS):
            settings = replace(length, seed=seed)
            fixed = replace(length, seed=fixed_seed)
            clocked = replace(fixed, timing=BusTiming(clock_period=0.25))
            for protocol in GRID_EVENT_PROTOCOLS:
                cells += [
                    (open_loop_equal_load(agents, 0.9, max_outstanding=1), protocol, settings),
                    (bursty_equal_load(agents, 0.9), protocol, settings),
                    (two_class_priority_load(agents, 2.0, urgent_fraction=0.2), protocol, fixed),
                    (equal_load(agents, 2.0), protocol, clocked),
                ]
            for protocol in GRID_EVENT_FAULTY:
                plan = fault_plan_for(protocol, GRID_EVENT_FAULT_RATE, scale, fixed_seed)
                cells.append((equal_load(agents, 2.0), protocol, replace(fixed, fault_plan=plan)))
    return cells


def event_cells():
    """The 18 cells of the event slice, in cross-check order."""
    settings = replace(SETTINGS, seed=SEEDS[0], engine="event")
    return [
        (equal_load(agents, LOADS[0]), protocol, settings)
        for agents in EVENT_AGENTS
        for protocol in PROTOCOLS
    ]


def run_event_cells(cells):
    return [run_cell(scenario, protocol, settings) for scenario, protocol, settings in cells]


def count_opcodes(func, *args, split=None):
    """Run ``func(*args)`` traced; return its result, the bytecodes
    executed per code object, and the owner class of each code object
    compiled from a string (a dataclass's generated methods): the class
    of its first call's ``self``.

    Without ``split`` a code object's count is one number.  With
    ``split = (code, parts, part_of)`` it is a list of ``parts``
    numbers: a call of ``code`` switches every later bytecode to part
    ``part_of(frame)``, and those before the first such call count to
    the last part."""
    tallies = {}
    owners = {}
    parts = 1 if split is None else split[1]
    switch = None if split is None else split[0]
    part = [parts - 1]

    def trace(frame, event, arg):
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        code = frame.f_code
        if code is switch:
            part[0] = split[2](frame)
        tally = tallies.get(code)
        if tally is None:
            tally = tallies[code] = [0] * parts
            if code.co_filename == "<string>":
                owner = frame.f_locals.get("self")
                if owner is not None:
                    owners[code] = type(owner)

        def local(frame, event, arg):
            if event == "opcode":
                tally[part[0]] += 1
            return local

        return local

    sys.settrace(trace)
    try:
        result = func(*args)
    finally:
        sys.settrace(None)
    if split is None:
        return result, {code: tally[0] for code, tally in tallies.items()}, owners
    return result, tallies, owners


def _name(code) -> str:
    module = Path(code.co_filename).stem
    return f"{module}.{getattr(code, 'co_qualname', code.co_name)}"


def phase_of(path: str) -> str:
    """The :data:`PHASES` row of the module at ``path`` below ``repro/``;
    code outside the package falls in :data:`OTHER`."""
    for phase, prefixes in PHASES:
        if path.startswith(prefixes):
            return phase
    return OTHER


def _print_table(heading, rows, completions, total) -> None:
    print(f"{heading:<60} {'per completion':>14} {'share':>7}")
    for name, count in rows:
        print(f"{name:<60} {count / completions:>14.1f} {count / total:>7.1%}")


def _where(code, owners):
    """The printed name of ``code`` and its module's path below ``repro/``."""
    owner = owners.get(code)
    if owner is not None:
        module = owner.__module__
        name = f"{module.rpartition('.')[2]}.{owner.__qualname__}.{code.co_name}"
        return name, module.partition("repro.")[2].replace(".", "/")
    return _name(code), code.co_filename.rpartition(f"{os.sep}repro{os.sep}")[2]


def _print_functions(by_name, completions) -> None:
    """The :data:`TOP` functions of ``by_name``, the rest in one row, and
    the total, per completion."""
    total = sum(by_name.values())
    ranked = sorted(by_name.items(), key=lambda item: (-item[1], item[0]))
    rows = ranked[:TOP]
    rest = sum(tally for _, tally in ranked[TOP:])
    if rest:
        rows.append(("(other functions)", rest))
    _print_table("function", rows + [("total", total)], completions, total)


def count(label, cells, runner, phases) -> int:
    """Trace ``runner(cells)`` and print its bytecodes per completion by
    function, and by :data:`PHASES` when ``phases`` is set."""
    results, counts, owners = count_opcodes(runner, cells)
    completions = sum(result.collector.total_recorded for result in results)
    by_name = {}
    by_phase = dict.fromkeys([phase for phase, __ in PHASES] + [OTHER], 0)
    for code, tally in counts.items():
        name, path = _where(code, owners)
        by_name[name] = by_name.get(name, 0) + tally
        by_phase[phase_of(path)] += tally
    total = sum(by_name.values())
    print(f"{len(cells)} {label}, {completions} completions, {total} bytecodes")
    _print_functions(by_name, completions)
    if phases:
        print()
        _print_table("phase", [*by_phase.items(), ("total", total)], completions, total)
    return 0


def count_split(label, cells, rows, row_of, heading) -> int:
    """Trace ``run_lanes(cells)`` and print its bytecodes per completion
    by row, then each row's by function.  A cell falls in row
    ``row_of(scenario, protocol, settings)``, one of ``rows``; the
    bytecodes before the first lane's build form the :data:`PACK` row."""
    labels = [row_of(*cell) for cell in cells]
    parts = [*rows, PACK]

    def part_of(frame):
        args = frame.f_locals
        return rows.index(row_of(args["scenario"], args["protocol"], args["settings"]))

    split = (_Replication.__init__.__code__, len(parts), part_of)
    results, counts, owners = count_opcodes(run_lanes, cells, split=split)
    done = dict.fromkeys(parts, 0)
    for row, result in zip(labels, results):
        done[row] += result.collector.total_recorded
    completions = sum(done.values())
    by_row = {part: {} for part in parts}
    for code, tallies in counts.items():
        name = _where(code, owners)[0]
        for part, tally in zip(parts, tallies):
            if tally:
                by_row[part][name] = by_row[part].get(name, 0) + tally
    spent = {part: sum(names.values()) for part, names in by_row.items()}
    total = sum(spent.values())
    print(f"{len(cells)} {label}, {completions} completions, {total} bytecodes")
    heading = f"{heading} (cells, completions)"
    print(f"{heading:<44} {'per completion':>14} {'per own':>9} {'share':>7}")
    for part in parts:
        name = f"{part} ({labels.count(part)}, {done[part]})" if part in rows else part
        own = f"{spent[part] / done[part]:>9.1f}" if done[part] else f"{'':>9}"
        print(f"{name:<44} {spent[part] / completions:>14.1f} {own} {spent[part] / total:>7.1%}")
    print(f"{'total':<44} {total / completions:>14.1f} {total / completions:>9.1f} {1:>7.1%}")
    for row in rows:
        print()
        print(f"{row}: {labels.count(row)} cells, {done[row]} completions")
        _print_functions(by_row[row], done[row])
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--engine",
        choices=("lanes", "event"),
        default="lanes",
        help="a lane slice (default) or the event-engine cross-check slice",
    )
    parser.add_argument(
        "--slice",
        choices=("paper", "grid-event"),
        default="paper",
        help="the lane slice: the paper grid's N = 30 column (default) or grid-event",
    )
    split = parser.add_mutually_exclusive_group()
    split.add_argument(
        "--by-kind",
        action="store_true",
        help="with --slice grid-event: split the count by cell kind",
    )
    split.add_argument(
        "--by-protocol",
        action="store_true",
        help="split a lane slice's count by protocol",
    )
    args = parser.parse_args(argv)
    if args.by_kind and not (args.engine == "lanes" and args.slice == "grid-event"):
        parser.error("--by-kind counts the grid-event lane slice only")
    if args.by_protocol and args.engine != "lanes":
        parser.error("--by-protocol counts a lane slice only")
    if args.engine == "event":
        return count("event cells", event_cells(), run_event_cells, phases=True)
    if args.slice == "grid-event":
        label, cells = "grid-event cells", grid_event_cells()
        protocols = (*GRID_EVENT_PROTOCOLS, *GRID_EVENT_FAULTY)
    else:
        label, cells, protocols = "cells", slice_cells(), PROTOCOLS
    if args.by_kind:
        return count_split(label, cells, KINDS, cell_kind, "kind")
    if args.by_protocol:
        return count_split(label, cells, protocols, lambda _, protocol, __: protocol, "protocol")
    return count(label, cells, run_lanes, phases=False)


if __name__ == "__main__":
    sys.exit(main())

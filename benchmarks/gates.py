"""The bench gates: one table, one way to measure a row.

Each row of :data:`GATES` is one ratio ``BENCH_engine.json`` records:
its key, what it shows and why it is gated, its two passes, the number
of interleaved rounds it takes, its bound and its bar.  :func:`measure`
times a row, and every consumer calls it: the live test
``benchmarks/test_gates.py``, ``scripts/run_benchmarks.py``, which
records the ratio, and ``scripts/check_bench.py``, which checks a fresh
one.

A pass is a no-argument callable that runs its work once and returns
the seconds the work took; untimed setup (building cells or requests,
a fresh service) happens before its clock starts.  The numerator pass
is the event engine or the extra layer.  A FLOOR row records a speedup,
numerator / denominator, that must reach its bar; a CEILING row records
an overhead, that ratio minus 1, that must stay under it.

The cell builders and passes live here too, so the identity tests and
pytest-benchmark entries beside each gate time the same work.
"""

import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from functools import partial
from typing import Callable, ContextManager, NamedTuple, Tuple

from repro.bus.timing import BusTiming
from repro.bus.watchdog import WatchdogPolicy
from repro.engine.batch import run_lanes
from repro.experiments.cache import ResultCache
from repro.experiments.reference import LOADS
from repro.experiments.robustness import DEFAULT_FAULT_RATES, fault_plan_for, grid_scenario
from repro.experiments.runner import SimulationSettings, run_simulation
from repro.experiments.scale import Scale
from repro.service import ArbitrationService, ServiceConfig
from repro.session import RunRequest, Session
from repro.session.request import clear_interned
from repro.workload.arrivals import bursty_equal_load, two_class_priority_load
from repro.workload.scenarios import equal_load

FLOOR = "floor"
CEILING = "ceiling"

#: One lane family per kernel implementation, both FCFS counter
#: strategies included — the grid must pay every kernel's dispatch cost.
PROTOCOLS = ("rr", "rr-impl2", "rr-impl3", "fcfs", "fcfs-aincr", "fixed")

Pass = Callable[[], float]


# ---------------------------------------------------------------------------
# Cells
# ---------------------------------------------------------------------------


def grid_cells():
    """The 6-protocol x 8-seed peak-contention grid (48 cells): four
    agents at per-agent load 1.0, CV = 1, the paper's §4.1 corner."""
    scenario = equal_load(4, 4.0)
    settings = SimulationSettings(batches=2, batch_size=500, warmup=50)
    return [
        (scenario, protocol, replace(settings, seed=seed))
        for protocol in PROTOCOLS
        for seed in range(8)
    ]


def _slice(scenario_for, settings):
    """N 10/30 x two seeds x RR/FCFS, 250 completions a cell."""
    return [
        (scenario_for(n), protocol, replace(settings, seed=seed))
        for n in (10, 30)
        for seed in (12345, 12346)
        for protocol in ("rr", "fcfs", "fcfs-aincr")
    ]


def sync_cells():
    """The 12-cell synchronous slice: total load 2.0 on a bus clocked
    at a quarter of the tenure (§2.1)."""
    settings = SimulationSettings(
        batches=2, batch_size=100, warmup=50, timing=BusTiming(clock_period=0.25)
    )
    return _slice(lambda n: equal_load(n, 2.0), settings)


def priority_cells():
    """The 12-cell priority slice: total load 2.0, each request urgent
    with probability 0.2 (§2.4)."""
    settings = SimulationSettings(batches=2, batch_size=100, warmup=50)
    return _slice(lambda n: two_class_priority_load(n, 2.0, 0.2), settings)


def fault_cells():
    """The 12-cell fault-model slice: the robustness grid's cells for
    ``rr-faulty-register`` and ``fcfs-glitchable`` (10 agents at load
    2.0, each default fault rate, default watchdog) at two seeds."""
    scale = Scale("fault-slice", batches=2, batch_size=100, warmup=50)
    settings = SimulationSettings(
        batches=scale.batches,
        batch_size=scale.batch_size,
        warmup=scale.warmup,
        keep_order=True,
        watchdog=WatchdogPolicy(),
    )
    return [
        (
            grid_scenario(),
            protocol,
            replace(settings, seed=seed, fault_plan=fault_plan_for(protocol, rate, scale, seed)),
        )
        for protocol in ("rr-faulty-register", "fcfs-glitchable")
        for rate in DEFAULT_FAULT_RATES
        for seed in (12345, 12346)
    ]


def shared_tape_cells():
    """The six lane protocols at N = 64, total load 2.0, one seed: the
    run length of perfbench's ``grid-lanes`` cells (1,050 completions)."""
    settings = SimulationSettings(batches=2, batch_size=500, warmup=50, seed=7)
    return [(equal_load(64, 2.0), protocol, settings) for protocol in PROTOCOLS]


def stateful_tape_cells():
    """Bursty (MMPP) and two-class N = 30 cells under ``grid-event``'s
    protocols, at its run length (250 completions) and one seed."""
    settings = SimulationSettings(batches=2, batch_size=100, warmup=50, seed=300)
    scenarios = (bursty_equal_load(30, 0.9), two_class_priority_load(30, 2.0, urgent_fraction=0.2))
    return [
        (scenario, protocol, settings)
        for scenario in scenarios
        for protocol in ("rr", "fcfs", "fcfs-aincr")
    ]


#: The open-loop sweep's settings: the same completion budget on both
#: sides, so the pass ratio is the per-completion cost.
SWEEP_SETTINGS = SimulationSettings(batches=2, batch_size=250, warmup=50, engine="event")


def closed_cells():
    scenario = equal_load(8, 4.0)
    return [
        (scenario, protocol, replace(SWEEP_SETTINGS, seed=seed))
        for protocol in ("rr", "fcfs", "fcfs-aincr")
        for seed in (1, 2)
    ]


def open_cells():
    """The closed sweep's cells as bursty two-class open-loop sources.

    Every cell pins the event engine: open-loop r = 1 cells are inside
    the lane domain, and the sweep times the arrival layer, not lanes.
    """
    return [
        (bursty_equal_load(8, 0.9, urgent_fraction=0.2), protocol, settings)
        for _, protocol, settings in closed_cells()
    ]


#: The hit-path grid's run length: the paper's settings.
HIT_SETTINGS = SimulationSettings(batches=2, batch_size=200, warmup=50)


def hit_requests():
    """A 30-agent grid: 8 paper loads x RR/FCFS x 3 seeds, 48 requests."""
    return [
        RunRequest(equal_load(30, load), protocol, replace(HIT_SETTINGS, seed=seed))
        for load in LOADS
        for protocol in ("rr", "fcfs")
        for seed in (12345, 12346, 12347)
    ]


def requests_for(cells):
    return [RunRequest(scenario, protocol, settings) for scenario, protocol, settings in cells]


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


def event_pass(cells):
    """Every cell on the event engine, one after another."""
    return [
        run_simulation(scenario, protocol, replace(settings, engine="event"))
        for scenario, protocol, settings in cells
    ]


def one_cell_packs(cells):
    """Every cell as its own lane pack."""
    return [result for cell in cells for result in run_lanes([cell])]


@contextmanager
def warmed_cache(requests):
    """A temporary cache directory that holds every request's result."""
    with tempfile.TemporaryDirectory(prefix="bench-cache-") as directory:
        Session(cache=ResultCache(directory), jobs=1).run_requests(requests)
        yield directory


def cached_service(directory, **config):
    """A serial service over the cache at ``directory``."""
    return ArbitrationService(
        cache=ResultCache(directory), config=ServiceConfig(serial=True, **config)
    )


def serve(service, wires):
    """Submit wire requests as one job, answered inside ``submit``."""
    job = service.submit([RunRequest.from_json(wire) for wire in wires])
    assert job.state == "done"
    return job.outcomes


def cold_service(directory):
    """A fresh cache instance and an emptied intern table."""
    clear_interned()
    return cached_service(directory)


def _timed(work, *args):
    start = time.perf_counter()
    work(*args)
    return time.perf_counter() - start


def _remade(build, work):
    """A pass over cells ``build`` makes afresh, untimed, each time."""
    return lambda: _timed(work, build())


def _over_lanes(numerator, build):
    """``numerator`` over one lane pack of the cells ``build`` makes."""
    cells = build()
    return nullcontext((partial(_timed, numerator, cells), partial(_timed, run_lanes, cells)))


def _session():
    """Cacheless session gather over the raw lane pass.  Each gather gets
    fresh requests: a request hashes itself once, and a reused one would
    skip the hashing the gate must pay."""
    cells = grid_cells()

    def routed():
        return _timed(Session(jobs=1).run_requests, requests_for(cells))

    return nullcontext((routed, partial(_timed, run_lanes, cells)))


def _open_loop():
    """Open-loop bursty sweep over its closed-loop sweep."""
    return nullcontext((_remade(open_cells, event_pass), _remade(closed_cells, event_pass)))


@contextmanager
def _service():
    """Service-routed over direct session gathers of the warmed grid."""
    requests = requests_for(grid_cells())
    with warmed_cache(requests) as directory:
        session = Session(cache=ResultCache(directory), jobs=1)
        service = cached_service(directory, poll_interval=0.02)
        service.start()
        try:
            yield (
                partial(_timed, service.run_requests, requests),
                partial(_timed, session.run_requests, requests),
            )
        finally:
            service.close()


@contextmanager
def _hot_hit():
    """Cold over hot service hits on the warmed 30-agent grid."""
    requests = hit_requests()
    wires = [request.to_json() for request in requests]
    with warmed_cache(requests) as directory:
        hot = cached_service(directory)
        serve(hot, wires)

        def cold_pass():
            service = cold_service(directory)
            try:
                return _timed(serve, service, wires)
            finally:
                service.close()

        def hot_pass():
            serve(hot, wires)  # the cold pass emptied the intern table
            return _timed(serve, hot, wires)

        try:
            yield cold_pass, hot_pass
        finally:
            hot.close()


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------


class Gate(NamedTuple):
    """One recorded ratio, how it is measured and the bar it must meet."""

    #: Key of the ratio in ``BENCH_engine.json`` and a fresh summary.
    key: str
    label: str
    #: What the ratio catches, in one line.
    why: str
    #: Opens the row's passes: a context manager that yields
    #: ``(numerator, denominator)`` and cleans up after them.
    passes: Callable[[], ContextManager[Tuple[Pass, Pass]]]
    rounds: int
    bound: str
    bar: float
    #: Decimal places the recorded ratio is rounded to.
    digits: int

    @property
    def relation(self) -> str:
        return ">=" if self.bound == FLOOR else "<"

    def holds(self, ratio: float, bar=None) -> bool:
        """Whether ``ratio`` meets ``bar`` (default: the row's own)."""
        bar = self.bar if bar is None else bar
        return ratio >= bar if self.bound == FLOOR else ratio < bar

    def show(self, ratio: float) -> str:
        return f"{ratio:.2f}x" if self.bound == FLOOR else f"{ratio:+.2%}"

    def limit(self, bar: float) -> str:
        if self.bound == CEILING:
            return f"{bar:.0%}"
        return f"{bar:.1f}x" if round(bar, 1) == bar else f"{bar:.2f}x"


GATES = (
    Gate(
        "grid_speedup", "grid speedup",
        "lanes over the event engine on the 48-cell peak-contention grid",
        partial(_over_lanes, event_pass, grid_cells), 4, FLOOR, 10.0, 2,
    ),
    Gate(
        "session_overhead", "session overhead",
        "planning and routing must add no per-cell cost to a lane pass",
        _session, 5, CEILING, 0.02, 4,
    ),
    Gate(
        "service_overhead", "service overhead",
        "the job layer adds a fixed handoff, not a per-cell cost, to a cached gather",
        _service, 5, CEILING, 0.5, 4,
    ),
    Gate(
        "openloop_overhead", "open-loop overhead",
        "MMPP phase walks and class draws per request on the event engine",
        _open_loop, 5, CEILING, 0.5, 4,
    ),
    Gate(
        "sync_grid_speedup", "synchronous grid speedup",
        "clocked lanes pay a scheduled kick per arbitration (§2.1)",
        partial(_over_lanes, event_pass, sync_cells), 5, FLOOR, 2.5, 2,
    ),
    Gate(
        "priority_grid_speedup", "priority grid speedup",
        "classed lanes pay a class draw and a class-aware arbitration (§2.4)",
        partial(_over_lanes, event_pass, priority_cells), 5, FLOOR, 2.5, 2,
    ),
    Gate(
        "fault_grid_speedup", "fault grid speedup",
        "faulted lanes pay fault timers and line perturbations (§3.1/§3.2)",
        partial(_over_lanes, event_pass, fault_cells), 5, FLOOR, 2.5, 2,
    ),
    Gate(
        "hot_hit_speedup", "hot hit speedup",
        "interned decode, memoized key, hot cache tier and an answer at admission",
        _hot_hit, 5, FLOOR, 10.0, 1,
    ),
    Gate(
        "shared_tape_speedup", "shared tape speedup",
        "a pack seeds and draws each renewal think-time stream once",
        partial(_over_lanes, one_cell_packs, shared_tape_cells), 5, FLOOR, 1.1, 2,
    ),
    Gate(
        "stateful_tape_speedup", "stateful tape speedup",
        "a pack seeds and draws each MMPP and classed stream once",
        partial(_over_lanes, one_cell_packs, stateful_tape_cells), 7, FLOOR, 1.15, 2,
    ),
)


def min_of_k(numerator: Pass, denominator: Pass, rounds: int) -> float:
    """Interleaved min-of-k: the numerator's fastest pass over the
    denominator's.

    Each pass runs once untimed to warm allocator and code caches; then
    the two alternate for ``rounds`` rounds, so machine drift hits both
    sides, and each side's minimum strips scheduler and GC noise.
    """
    numerator()
    denominator()
    slow, fast = [], []
    for _ in range(rounds):
        slow.append(numerator())
        fast.append(denominator())
    return min(slow) / min(fast)


def measure(gate: Gate) -> float:
    """The row's ratio: a speedup for a FLOOR, an overhead for a CEILING."""
    with gate.passes() as (numerator, denominator):
        ratio = min_of_k(numerator, denominator, gate.rounds)
    return ratio - 1.0 if gate.bound == CEILING else ratio

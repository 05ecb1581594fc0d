"""Parallel sweep execution over independent simulation cells.

The paper's evaluation is a grid: every table cell is one independent
``(scenario, protocol, settings)`` simulation, and nothing couples the
cells — each derives all of its randomness from its own settings seed.
*What* to run is decided by the session layer —
:func:`repro.session.planner.plan_runs` resolves engine choice, dedup,
lane packing and cache lookup; :func:`repro.session.execute.execute_plan`
drives the plan — and this module supplies the execution backends: the
in-process lane hook (:func:`repro.engine.batch.run_lanes` runs
every batch-capable cell of a grid in one call, however
heterogeneous) and the per-cell path, a one-shard
:class:`~repro.service.shards.ShardPool` with ``jobs`` workers (or an
in-process one when ``jobs == 1``) carrying the shared crash ladder and
one in-process retry per raising cell.

Determinism guarantees (the common-random-numbers discipline the paper's
protocol comparisons depend on):

- every cell's random streams derive from ``settings.seed`` and the
  agent identities only, so execution order and worker placement cannot
  perturb results: serial and parallel sweeps return bit-identical
  :class:`~repro.stats.summary.RunResult` metrics;
- each cell executes against a private copy of its scenario
  (:func:`repro.session.single.run_request`), so stateful workload
  distributions — trace replay — start every cell from the same
  position regardless of how many cells share a spec;
- results are returned in cell order, whatever order workers finish in.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.engine.batch import run_lanes
from repro.errors import ConfigurationError, SweepExecutionError
from repro.experiments.cache import ResultCache
from repro.experiments.runner import SimulationSettings
from repro.observability.metrics import MetricsRegistry, merge_metrics
from repro.service.backoff import BackoffPolicy
from repro.service.shards import ShardPool
from repro.session.control import RunControl
from repro.session.execute import execute_plan
from repro.session.outcome import ROUTE_DEDUP, CellFailure, RunOutcome, SessionStats
from repro.session.planner import normalize_engine, plan_runs
from repro.session.request import RunRequest
from repro.stats.summary import RunResult
from repro.workload.scenarios import ScenarioSpec

__all__ = ["SweepCell", "CellFailure", "SweepExecutor", "default_jobs", "RETRY_BACKOFF"]

#: Default retry pacing: a deterministic, seeded, capped exponential
#: with jitter (see :mod:`repro.service.backoff`).  A raising cell's
#: one retry waits ~25-50ms — long enough for a torn process pool or an
#: OOM-killed worker's memory to clear, short enough to be invisible in
#: grid wall-clock.
RETRY_BACKOFF = BackoffPolicy(base=0.05, cap=1.0, multiplier=2.0, jitter=0.5, seed=0)

_ENV_JOBS = "REPRO_JOBS"


def default_jobs() -> int:
    """Worker count: ``$REPRO_JOBS`` (0 = all cores), else 1 (serial)."""
    raw = os.environ.get(_ENV_JOBS)
    if raw is None:
        return 1
    try:
        jobs = int(raw)
    except ValueError:
        raise ConfigurationError(f"${_ENV_JOBS} must be an integer, got {raw!r}")
    return resolve_jobs(jobs)


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a jobs request: None -> default, 0 -> cpu count."""
    if jobs is None:
        return default_jobs()
    if jobs < 0:
        raise ConfigurationError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


@dataclass(frozen=True)
class SweepCell:
    """One independent simulation in a sweep grid."""

    scenario: ScenarioSpec
    protocol: str
    settings: SimulationSettings
    #: Caller's label for the cell (e.g. ``"load=1.50/rr"``); carried
    #: through untouched for diagnostics.
    tag: Optional[str] = None


def _call_run_lanes(cells):
    """Lane backend handed to the session layer.

    A function (not a bare reference) so ``run_lanes`` resolves through
    this module's globals at call time — the differential and fault
    suites monkeypatch ``sweep.run_lanes`` to probe the fallback path.
    """
    return run_lanes(cells)


class SweepExecutor:
    """Runs sweep cells, caching results and fanning out over processes.

    Parameters
    ----------
    jobs:
        Worker processes for per-cell runs.  ``1`` (the default via
        ``$REPRO_JOBS``) runs serially in-process; ``0`` means one per
        CPU core.  Lane packs always run in-process.  The pool degrades
        to serial execution where process pools are unavailable
        (restricted environments, missing ``fork``/spawn support), so
        callers never need two code paths.
    cache:
        Optional :class:`ResultCache`.  When set, every cell is looked
        up before execution and every executed cell is stored after.
    engine:
        Optional engine override applied to every cell's settings (the
        CLI's ``--engine`` reaches experiment grids that build their
        settings internally this way).  ``None`` leaves each cell's own
        declaration alone.  The override never changes cache keys — the
        engine selector is not part of a cell's identity (epoch 6) —
        and cells outside the batch domain still fall back to the event
        engine per cell.
    backoff:
        Retry (and respawn) pacing for failed cells: the deterministic
        jittered exponential of :data:`RETRY_BACKOFF` by default.  Tests (and
        callers that must never sleep) pass
        :meth:`BackoffPolicy.none() <repro.service.backoff.
        BackoffPolicy.none>`.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        engine: Optional[str] = None,
        backoff: Optional[BackoffPolicy] = None,
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        self.cache = cache
        self.engine = normalize_engine(engine)
        self.backoff = backoff if backoff is not None else RETRY_BACKOFF
        self.stats = SessionStats()

    # -- public API -----------------------------------------------------------

    def run(self, cells: Sequence[SweepCell]) -> List[RunResult]:
        """Execute (or replay) every cell; results in cell order."""
        outcomes = self.run_requests(
            [
                RunRequest(cell.scenario, cell.protocol, cell.settings, tag=cell.tag)
                for cell in cells
            ]
        )
        return [outcome.result for outcome in outcomes]

    def run_requests(
        self,
        requests: Sequence[RunRequest],
        control: Optional[RunControl] = None,
    ) -> List[RunOutcome]:
        """Plan and execute a request batch; outcomes in request order.

        The session layer decides everything (engine override, dedup,
        lane packing, cache lookup — see :func:`repro.session.planner.
        plan_runs`); this executor contributes its backends: the lane
        pack hook and the per-cell pool.  ``control`` adds
        cooperative cancellation/deadline checks at the session layer's
        stage boundaries.  Raises :class:`SweepExecutionError` naming
        every cell that failed even after its retry.
        """
        plan = plan_runs(requests, cache=self.cache, engine=self.engine)

        def direct_runner(batch: Sequence[RunRequest]):
            workers = min(self.jobs, len(batch))
            if workers == 1:
                pool = ShardPool.in_process(self.backoff)
            else:
                pool = ShardPool(shards=1, workers=workers, backoff=self.backoff)
            try:
                return pool.run_cells(batch, stats=self.stats, control=control)
            finally:
                pool.close()

        outcomes = execute_plan(
            plan,
            cache=self.cache,
            stats=self.stats,
            lane_runner=_call_run_lanes,
            direct_runner=direct_runner,
            control=control,
        )
        failures = [
            outcome.failure
            for outcome in outcomes
            if outcome.failure is not None and outcome.route != ROUTE_DEDUP
        ]
        if failures:
            details = "; ".join(str(failure) for failure in failures)
            raise SweepExecutionError(
                f"{len(failures)} sweep cell(s) failed after retry: {details}"
            )
        return outcomes

    def simulate(
        self,
        scenario: ScenarioSpec,
        protocol: str,
        settings: SimulationSettings,
    ) -> RunResult:
        """Single-cell convenience wrapper around :meth:`run`."""
        return self.run([SweepCell(scenario, protocol, settings)])[0]

    @staticmethod
    def merged_metrics(results: Sequence[RunResult]) -> MetricsRegistry:
        """One registry folding every telemetry-enabled cell's metrics.

        Cells are merged in result (= grid declaration) order, so the
        reduction is deterministic; cells run without
        ``telemetry.metrics`` contribute nothing.  Parallel and serial
        sweeps merge to identical registries because each cell's
        registry depends only on that cell's inputs.
        """
        return merge_metrics(result.metrics for result in results)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cache = "on" if self.cache is not None else "off"
        return (
            f"SweepExecutor(jobs={self.jobs}, cache={cache}, "
            f"executed={self.stats.executed}, hits={self.stats.cache_hits})"
        )

"""The session: the one executor every grid, table and CLI run uses.

A :class:`Session` queues :class:`~repro.session.request.RunRequest`\\ s
through :meth:`~Session.submit`, then :meth:`~Session.gather`\\ s the
batch — one planned, deduplicated, lane-packed, cached, pool-backed run
— and returns :class:`~repro.session.outcome.RunOutcome`\\ s in
submission order.  :meth:`~Session.run_requests` is the same run without
the queue; the experiment grids, the robustness grid and the CLI call it
directly.

A run is :func:`~repro.session.planner.plan_runs` (engine choice,
within-batch dedup, cache lookup, lane packing) followed by
:func:`~repro.session.execute.execute_plan` (the lane pack in-process,
the per-cell rest on a one-shard :class:`~repro.service.shards.ShardPool`
with ``jobs`` workers, in-process when one worker suffices).  Identical
requests within one run (same epoch-6 content hash) execute once and
every repeat answers with ``route="dedup"``.

Determinism guarantees (the common-random-numbers discipline the paper's
protocol comparisons depend on):

- every cell's random streams derive from ``settings.seed`` and the
  agent identities only, so execution order and worker placement cannot
  perturb results: serial and parallel runs return bit-identical
  :class:`~repro.stats.summary.RunResult` metrics;
- each cell executes against a private copy of its scenario
  (:func:`repro.session.single.run_request`), so stateful workload
  distributions — trace replay — start every cell from the same
  position regardless of how many cells share a spec;
- results are returned in request order, whatever order workers finish
  in.

``Session(executor=...)`` delegates every run to another object with the
same ``run_requests(requests, control=)`` / ``stats`` surface — an
:class:`~repro.service.service.ArbitrationService`, say — so a grid can
run against a service unchanged.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.errors import ConfigurationError, SweepExecutionError
from repro.session.control import RunControl
from repro.session.execute import execute_plan
from repro.session.outcome import ROUTE_DEDUP, RunOutcome, SessionStats
from repro.session.planner import normalize_engine, plan_runs
from repro.session.request import RunRequest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.experiments.cache import ResultCache
    from repro.experiments.runner import SimulationSettings
    from repro.stats.summary import RunResult
    from repro.workload.scenarios import ScenarioSpec

__all__ = ["Session", "resolve_jobs"]

_ENV_JOBS = "REPRO_JOBS"


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Normalise a worker count: ``None`` -> ``$REPRO_JOBS`` (else 1), 0 -> all cores."""
    if jobs is None:
        raw = os.environ.get(_ENV_JOBS)
        if raw is None:
            return 1
        try:
            jobs = int(raw)
        except ValueError:
            raise ConfigurationError(f"${_ENV_JOBS} must be an integer, got {raw!r}")
    if jobs < 0:
        raise ConfigurationError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


class Session:
    """Plans, executes and caches batches of run requests.

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
        Optional :class:`~repro.experiments.cache.ResultCache` shared by
        every run: each request is looked up before execution and every
        executed one is stored after.
    engine:
        Optional engine override applied to every request (validated;
        ``None`` respects each request's own declaration).  The override
        never changes cache keys — the engine selector is not part of a
        cell's identity (epoch 6).  Under ``"batch"``, cells outside the
        batch domain run on the event engine, and a lane pack that raises
        is demoted to it once, cell by cell.
    executor:
        An object to delegate every run to (``run_requests(requests,
        control=)`` plus ``stats``); ``jobs``, ``cache`` and ``engine``
        are then the delegate's business.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache: Optional["ResultCache"] = None,
        engine: Optional[str] = None,
        executor=None,
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        self.cache = cache
        self.engine = normalize_engine(engine)
        self.executor = executor
        #: Execution accounting, cumulative across runs (the delegate's
        #: own when there is one).
        self.stats: SessionStats = executor.stats if executor is not None else SessionStats()
        self._pending: List[RunRequest] = []

    # -- submit / gather ------------------------------------------------------

    def submit(
        self,
        scenario: "ScenarioSpec",
        protocol: str,
        settings: Optional["SimulationSettings"] = None,
        tag: Optional[str] = None,
    ) -> RunRequest:
        """Queue one run for the next :meth:`gather`; returns its request."""
        request = RunRequest(scenario, protocol, settings, tag=tag)
        self._pending.append(request)
        return request

    def submit_request(self, request: RunRequest) -> RunRequest:
        """Queue an already-built request (e.g. one off the wire)."""
        self._pending.append(request)
        return request

    def gather(self, control: Optional[RunControl] = None) -> List[RunOutcome]:
        """Run everything submitted since the last gather, in order."""
        requests, self._pending = self._pending, []
        return self.run_requests(requests, control=control)

    # -- execution ------------------------------------------------------------

    def run_requests(
        self,
        requests: Sequence[RunRequest],
        control: Optional[RunControl] = None,
    ) -> List[RunOutcome]:
        """Plan and execute a request batch; outcomes in request order.

        ``control`` (a :class:`~repro.session.control.RunControl`)
        installs cooperative cancellation/deadline checks at the
        execution stage boundaries; see
        :func:`repro.session.execute.execute_plan`.  Raises
        :class:`~repro.errors.SweepExecutionError` naming every cell
        that failed even after its retry.
        """
        if self.executor is not None:
            return self.executor.run_requests(requests, control=control)
        plan = plan_runs(requests, cache=self.cache, engine=self.engine)
        outcomes = execute_plan(
            plan,
            cache=self.cache,
            stats=self.stats,
            direct_runner=lambda batch, keys: self._run_direct(batch, control),
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

    def _run_direct(self, batch: Sequence[RunRequest], control: Optional[RunControl]):
        """The per-cell backend: a one-shard pool sized to the batch."""
        from repro.service.shards import ShardPool

        workers = min(self.jobs, len(batch))
        pool = ShardPool.in_process() if workers == 1 else ShardPool(shards=1, workers=workers)
        try:
            return pool.run_cells(batch, stats=self.stats, control=control)
        finally:
            pool.close()

    def simulate(
        self,
        scenario: "ScenarioSpec",
        protocol: str,
        settings: Optional["SimulationSettings"] = None,
    ) -> "RunResult":
        """Single-run convenience: one request, its result."""
        return self.run_requests([RunRequest(scenario, protocol, settings)])[0].result

    def __repr__(self) -> str:
        backend = f"executor={self.executor!r}" if self.executor is not None else f"jobs={self.jobs}"
        return (
            f"Session({backend}, pending={len(self._pending)}, "
            f"executed={self.stats.executed}, hits={self.stats.cache_hits})"
        )

"""Execute a :class:`~repro.session.planner.RunPlan`.

:func:`execute_plan` is the single orchestration loop every entry point
shares — :class:`~repro.session.session.Session` and the
:class:`~repro.service.service.ArbitrationService` dispatcher.  It is
the only code that turns planned runs into outcomes: it replays cached
runs, packs the lane route into one lane pack, demotes a lane pack
that fails at runtime to the event engine (loudly, and the only place
a batch-capable cell is ever demoted), hands the direct route to the
supplied backend, writes fresh results back to the cache, attaches the
:class:`~repro.session.outcome.CellFailure` of a cell that failed for
good, answers ``"dedup"`` runs from their first occurrence, and
accounts everything on a shared
:class:`~repro.session.outcome.SessionStats`.

Backends are injected as callables so this module stays free of
process-pool mechanics.  A backend returns one entry per input, in
order: a result, or — for a per-cell backend such as
:meth:`~repro.service.shards.ShardPool.run_cells` — the
:class:`~repro.session.outcome.CellFailure` of a cell that failed even
after its retry.
"""

from __future__ import annotations

import warnings
from dataclasses import replace
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Union

from repro.session.control import RunControl
from repro.session.outcome import (
    ROUTE_CACHE,
    ROUTE_DEDUP,
    ROUTE_DIRECT,
    ROUTE_LANES,
    CellFailure,
    RunOutcome,
    SessionStats,
)
from repro.session.planner import PlannedRun, RunPlan
from repro.session.request import RunRequest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.experiments.cache import ResultCache
    from repro.stats.summary import RunResult

__all__ = ["execute_plan"]

#: A lane backend: cells in, results in lane order.
LaneRunner = Callable[[Sequence[tuple]], Sequence["RunResult"]]
#: A per-cell backend: requests and their planned cache keys in, results
#: (or failures) in request order.
DirectRunner = Callable[
    [Sequence[RunRequest], Sequence[str]], Sequence[Union["RunResult", CellFailure]]
]


def _default_lane_runner(cells: Sequence[tuple]) -> Sequence["RunResult"]:
    from repro.engine.batch import run_lanes

    return run_lanes(cells)


def execute_plan(
    plan: RunPlan,
    cache: Optional["ResultCache"] = None,
    stats: Optional[SessionStats] = None,
    lane_runner: Optional[LaneRunner] = None,
    direct_runner: Optional[DirectRunner] = None,
    control: Optional[RunControl] = None,
) -> List[RunOutcome]:
    """Run every planned cell; outcomes in plan (= request) order.

    A lane pack that fails at runtime hands each of its cells to the
    direct backend on the event engine, with one ``RuntimeWarning`` and
    a ``fallback_cells`` tally (those cells were promised the batch
    engine; the direct path's retry/diagnostic machinery then reports
    real per-cell errors).  A demoted cell keeps its key, so its result
    is stored where the lane's would have been.  The direct backend
    gets each request's planned key with it, so no backend hashes a
    request again.
    Fresh results are written back to ``cache`` under their planned
    keys.  ``stats`` accumulates across calls when the caller owns it.
    The default direct backend is an in-process
    :meth:`~repro.service.shards.ShardPool.in_process` pool.

    ``control`` installs cooperative cancellation: it is checked before
    each execution stage (cache replay, the lane pack, the direct
    batch) and between the cells of an in-process backend, raising
    :class:`~repro.errors.CancelledRunError` /
    :class:`~repro.errors.DeadlineExceededError` out of this function.
    Outcomes already produced are lost to the caller but fresh results
    executed before the trip are already in the cache; cancellation
    never leaves partial state behind.
    """
    stats = stats if stats is not None else SessionStats()
    lane_runner = lane_runner or _default_lane_runner
    if control is not None:
        control.check()
    outcomes: List[Optional[RunOutcome]] = [None] * len(plan.runs)

    def record(run: PlannedRun, result, route: str) -> None:
        failure = None
        if isinstance(result, CellFailure):
            failure = replace(result, index=run.index)
            stats.failures.append(failure)
            result = None
        else:
            stats.add(executed=1)
            if cache is not None:
                cache.put(run.key, result)
        outcomes[run.index] = RunOutcome(
            request=run.request,
            result=result,
            route=route,
            cache_key=run.key,
            stored=cache is not None and failure is None,
            # A lane run recorded on the direct route was demoted.
            fallback=route != run.route,
            failure=failure,
        )

    cached_runs = plan.cached_runs
    stats.add(cache_hits=len(cached_runs))
    for run in cached_runs:
        outcomes[run.index] = RunOutcome(
            request=run.request,
            result=run.cached,
            route=ROUTE_CACHE,
            cache_key=run.key,
        )

    direct = plan.direct_runs
    lane_runs = plan.lane_runs
    if lane_runs:
        if control is not None:
            control.check()
        try:
            fresh = lane_runner([run.request.as_cell() for run in lane_runs])
        except Exception as exc:
            stats.add(fallback_cells=len(lane_runs))
            warnings.warn(
                f"{len(lane_runs)} batch-capable cell(s) fell back to the event "
                f"engine ({type(exc).__name__}: {exc})",
                RuntimeWarning,
                stacklevel=2,
            )
            demoted = [
                replace(run, request=run.request.resolved("event")) for run in lane_runs
            ]
            direct = sorted(direct + demoted, key=lambda run: run.index)
        else:
            stats.add(batch_replications=len(lane_runs))
            for run, result in zip(lane_runs, fresh):
                record(run, result, ROUTE_LANES)

    if direct:
        if control is not None:
            control.check()
        requests = [run.request for run in direct]
        if direct_runner is None:
            from repro.service.shards import ShardPool

            fresh = ShardPool.in_process().run_cells(requests, stats=stats, control=control)
        else:
            fresh = direct_runner(requests, [run.key for run in direct])
        for run, result in zip(direct, fresh):
            record(run, result, ROUTE_DIRECT)

    dedup_runs = plan.dedup_runs
    stats.add(deduplicated=len(dedup_runs))
    for run in dedup_runs:
        first = outcomes[run.first]
        outcomes[run.index] = RunOutcome(
            request=run.request,
            result=first.result,
            route=ROUTE_DEDUP,
            cache_key=run.key,
            failure=first.failure,
        )
    return outcomes  # type: ignore[return-value]  # every run recorded

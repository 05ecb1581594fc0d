"""Resolve requests into an executable plan: engine, route, dedup, cache.

:func:`plan_runs` is the single place orchestration decisions are made.
For every :class:`~repro.session.request.RunRequest` it

- resolves defaults and applies an optional engine override (which
  never changes cache keys — the engine selector is not part of a
  cell's identity, epoch 6);
- hashes the request once into its epoch-6 content key and
  **deduplicates** the batch on it: a repeat of an earlier request
  becomes a ``"dedup"`` run pointing at its first occurrence, so it
  neither executes nor touches the cache;
- consults the content-addressed
  :class:`~repro.experiments.cache.ResultCache` under that same key,
  when one is given;
- classifies the remaining runs by route: batch-capable
  ``engine="batch"`` cells without JSONL telemetry become lanes of one
  lane pack (:func:`repro.engine.batch.run_lanes` runs
  them however heterogeneous); everything else flows to the per-cell
  direct path (which may still use the batch engine for one cell —
  JSONL telemetry is only excluded from *lane packs*, where several
  lanes could contend for one trace file).  A direct run carries the
  reason it could not join a lane pack.

The resulting :class:`RunPlan` is pure data; executing it is
:func:`repro.session.execute.execute_plan`'s job, so backends (process
pools, serial loops) stay out of the decision layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.engine.batch import batch_capable, kernel_family
from repro.errors import ConfigurationError
from repro.session.outcome import ROUTE_CACHE, ROUTE_DEDUP, ROUTE_DIRECT, ROUTE_LANES
from repro.session.request import RunRequest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.experiments.cache import ResultCache
    from repro.stats.summary import RunResult

__all__ = ["PlannedRun", "RunPlan", "plan_runs", "normalize_engine", "ENGINES"]

#: The execution engines a settings object (or an override) may name.
ENGINES: Tuple[str, ...] = ("event", "batch")


def normalize_engine(engine: Optional[str], allow_none: bool = True) -> Optional[str]:
    """Validate an engine selector; the one place the vocabulary lives.

    ``None`` (allowed by default) means "respect each cell's own
    declaration".  Anything outside :data:`ENGINES` raises
    :class:`~repro.errors.ConfigurationError` with a uniform message.
    """
    if engine is None:
        if allow_none:
            return None
        raise ConfigurationError("an engine is required; choose 'event' or 'batch'")
    if engine not in ENGINES:
        raise ConfigurationError(
            f"unknown engine {engine!r}; choose 'event' or 'batch'"
        )
    return engine


@dataclass(frozen=True)
class PlannedRun:
    """One request's resolved execution decision."""

    #: Position in the planned batch (results are returned in this order).
    index: int
    #: The resolved request (defaults filled, engine override applied).
    request: RunRequest
    #: ``"cache"``, ``"lanes"``, ``"direct"`` or ``"dedup"`` (see the
    #: module docstring).
    route: str
    #: The request's epoch-6 content hash.
    key: Optional[str] = None
    #: The replayed result, for ``route == "cache"``.
    cached: Optional["RunResult"] = None
    #: The lane kernel family, for ``route == "lanes"``.
    family: Optional[str] = None
    #: Index of the identical request this run repeats, for
    #: ``route == "dedup"``.
    first: Optional[int] = None
    #: Why the run is not a lane, for ``route == "direct"``: the
    #: engine selector, JSONL telemetry, or the
    #: :func:`~repro.engine.batch.batch_capable` refusal.
    reason: Optional[str] = None


@dataclass(frozen=True)
class RunPlan:
    """The executable form of one batch of requests."""

    runs: Tuple[PlannedRun, ...]

    def by_route(self, route: str) -> List[PlannedRun]:
        return [run for run in self.runs if run.route == route]

    @property
    def cached_runs(self) -> List[PlannedRun]:
        return self.by_route(ROUTE_CACHE)

    @property
    def lane_runs(self) -> List[PlannedRun]:
        return self.by_route(ROUTE_LANES)

    @property
    def direct_runs(self) -> List[PlannedRun]:
        return self.by_route(ROUTE_DIRECT)

    @property
    def dedup_runs(self) -> List[PlannedRun]:
        return self.by_route(ROUTE_DEDUP)


def _lane_refusal(request: RunRequest) -> str:
    """Why ``request`` cannot run as a lane; empty when it can."""
    settings = request.settings
    telemetry = settings.telemetry
    if settings.engine != "batch":
        return f"engine {settings.engine!r} selected"
    if telemetry is not None and telemetry.jsonl_path is not None:
        return "JSONL telemetry"
    return batch_capable(request.scenario, request.protocol, settings)[1]


def plan_runs(
    requests: Sequence[RunRequest],
    cache: Optional["ResultCache"] = None,
    engine: Optional[str] = None,
    earlier: Optional[Sequence[PlannedRun]] = None,
) -> RunPlan:
    """Resolve a batch of requests into a :class:`RunPlan`.

    Requests are planned in order; the plan's indices are positions in
    ``requests``.  ``engine`` (validated against :data:`ENGINES`)
    overrides every request's own declaration; ``None`` respects them.
    Each request is hashed exactly once; the key serves both the dedup
    and the cache lookup.  ``earlier``, when given, holds the requests'
    runs from an earlier plan, in request order: their keys are used as
    they are and nothing is hashed, and their cache hits are replayed
    without reading the cache again (a result stored under an epoch-6
    key never changes).  Only the other requests are looked up.
    """
    engine = normalize_engine(engine)
    runs: List[PlannedRun] = []
    first_by_key: Dict[str, int] = {}
    for index, request in enumerate(requests):
        resolved = request.resolved(engine)
        before = earlier[index] if earlier is not None else None
        key = before.key if before is not None else resolved.cache_key()
        first = first_by_key.setdefault(key, index)
        if first != index:
            runs.append(PlannedRun(index, resolved, ROUTE_DEDUP, key=key, first=first))
            continue
        if cache is not None:
            if before is not None and before.route == ROUTE_CACHE:
                hit = before.cached
            else:
                hit = cache.get(key)
            if hit is not None:
                runs.append(
                    PlannedRun(index, resolved, ROUTE_CACHE, key=key, cached=hit)
                )
                continue
        reason = _lane_refusal(resolved)
        if not reason:
            runs.append(
                PlannedRun(
                    index,
                    resolved,
                    ROUTE_LANES,
                    key=key,
                    family=kernel_family(resolved.protocol),
                )
            )
        else:
            runs.append(
                PlannedRun(index, resolved, ROUTE_DIRECT, key=key, reason=reason)
            )
    return RunPlan(runs=tuple(runs))

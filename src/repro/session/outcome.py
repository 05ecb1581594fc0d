"""What one orchestrated run produced: result, provenance, degradation.

A :class:`RunOutcome` is the uniform answer to "what happened to this
:class:`~repro.session.request.RunRequest`?".  It always carries the
:class:`~repro.stats.summary.RunResult` (when the run succeeded), says
*how* the result was obtained — replayed from the content-addressed
cache, executed as a lane of the batch engine, or run through
the per-cell path — and records graceful degradation: whether a
failed lane pack demoted the run to the event engine and, for a cell
whose retry failed too, its :class:`CellFailure` diagnostics.

:class:`SessionStats` is the execution accounting every orchestration
entry point shares; :class:`~repro.session.session.Session` and
:class:`~repro.service.service.ArbitrationService` expose it as
``stats``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.session.request import RunRequest
    from repro.stats.summary import RunResult

__all__ = ["CellFailure", "SessionStats", "RunOutcome"]

#: How an outcome's result was obtained.
ROUTE_CACHE = "cache"
ROUTE_LANES = "lanes"
ROUTE_DIRECT = "direct"
ROUTE_DEDUP = "dedup"


@dataclass(frozen=True)
class CellFailure:
    """Diagnostics for one run that failed even after a retry.

    Attributes
    ----------
    index:
        Position of the run within the executed batch.
    tag:
        The run's caller-supplied label, if any.
    protocol:
        The run's protocol name.
    scenario:
        The run's scenario name.
    error:
        ``TypeName: message`` of the final (retry) failure.
    first_error:
        ``TypeName: message`` of the original failure that triggered
        the retry.
    """

    index: int
    tag: Optional[str]
    protocol: str
    scenario: str
    error: str
    first_error: str

    def __str__(self) -> str:
        label = self.tag if self.tag is not None else f"cell {self.index}"
        return (
            f"{label} ({self.protocol} on {self.scenario}): {self.error} "
            f"(first attempt: {self.first_error})"
        )


@dataclass
class SessionStats:
    """Execution accounting for one orchestrator, across all its runs."""

    executed: int = 0
    cache_hits: int = 0
    parallel_batches: int = 0
    serial_batches: int = 0
    #: Cells re-run after their first attempt raised.
    retries: int = 0
    #: Per-cell diagnostics for cells whose retry failed too.
    failures: List[CellFailure] = field(default_factory=list)
    #: Cells executed as lanes of the batch engine.
    batch_replications: int = 0
    #: Lane cells demoted to the event engine because their lane pack
    #: raised; each then ran once, on the direct path.  Statically
    #: out-of-domain cells (no kernel, JSONL telemetry, event cells) are
    #: not counted — they were never promised the batch engine.  The
    #: fault-free differential suite asserts this stays zero.
    fallback_cells: int = 0
    #: Requests answered by an identical earlier request of the same
    #: batch (the planner's ``"dedup"`` route), whichever entry point
    #: submitted the batch.
    deduplicated: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def add(self, **counts: int) -> None:
        """Add to counters as one step, safe across threads.

        The service executes cache hits in submitting threads while its
        dispatcher executes the rest, so shared counters move here.
        """
        with self._lock:
            for name, count in counts.items():
                setattr(self, name, getattr(self, name) + count)


@dataclass(frozen=True)
class RunOutcome:
    """One request's uniform answer: result plus provenance.

    Attributes
    ----------
    request:
        The resolved request (engine overrides already applied, and
        ``engine="event"`` for a demoted lane run), so the outcome is
        self-describing.
    result:
        The run's :class:`~repro.stats.summary.RunResult`; ``None``
        only when the run failed terminally (then ``failure`` says why
        — the orchestration entry points raise before returning such
        outcomes, so callers normally never observe ``None``).
    route:
        How the result was obtained: ``"cache"`` (replayed from the
        content-addressed store), ``"lanes"`` (a lane of one
        lane pack), ``"direct"`` (the per-cell path — which may still
        use the batch engine for a single cell), or ``"dedup"``
        (answered by an identical earlier request of the same batch).
    cache_key:
        The request's epoch-6 content hash (the planner hashes every
        request once, for dedup and the cache lookup alike).
    stored:
        True when this outcome executed fresh and was written back to
        the cache.
    fallback:
        True when the run was planned as a lane but its lane pack raised,
        so it ran once on the event engine instead (route ``"direct"``;
        tallied in :attr:`SessionStats.fallback_cells`).
    failure:
        Terminal :class:`CellFailure` diagnostics, if any.
    """

    request: "RunRequest"
    result: Optional["RunResult"]
    route: str
    cache_key: Optional[str] = None
    stored: bool = False
    fallback: bool = False
    failure: Optional[CellFailure] = None

    @property
    def cached(self) -> bool:
        """True when the result was replayed from the cache."""
        return self.route == ROUTE_CACHE

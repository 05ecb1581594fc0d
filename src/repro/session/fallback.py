"""The one transparent batch→event fallback, shared by every entry point.

Two kinds of cells reach the event path instead of the batch engine:

- **statically out-of-domain** cells (no batch kernel, an
  ``engine="event"`` declaration, JSONL telemetry in a lane pack,
  out-of-domain fault kinds, ``max_events`` caps).  These were never
  promised the batch engine; the planner routes them silently.
- **runtime degradations**: cells the planner *did* route to the batch
  engine whose kernel then raised.  The per-cell path would quietly
  mask whatever broke, so the degradation is loud — one
  ``RuntimeWarning`` with a single consistent message, and a
  ``fallback_cells`` tally on the orchestrator's
  :class:`~repro.session.outcome.SessionStats` — before the cells are
  handed to the event path (whose retry/diagnostic machinery reports
  real per-cell errors).

:func:`warn_batch_fallback` is the only place the warning is worded
and counted.
"""

from __future__ import annotations

import warnings

from repro.session.outcome import SessionStats

__all__ = ["batch_fallback_message", "warn_batch_fallback"]


def batch_fallback_message(count: int, exc: BaseException) -> str:
    """The single consistent wording of a runtime batch→event fallback."""
    return (
        f"{count} batch-capable cell(s) fell back to the event engine "
        f"({type(exc).__name__}: {exc})"
    )


def warn_batch_fallback(
    count: int,
    exc: BaseException,
    stats: SessionStats,
    stacklevel: int = 3,
) -> None:
    """Tally and announce ``count`` cells degrading to the event path."""
    stats.fallback_cells += count
    warnings.warn(
        batch_fallback_message(count, exc),
        RuntimeWarning,
        stacklevel=stacklevel,
    )

"""The service's unit of work: a job, its budget, its terminal states.

A :class:`Job` wraps one or more
:class:`~repro.session.request.RunRequest`\\ s submitted together, and
the service guarantees every *accepted* job reaches exactly one
terminal state:

- ``done`` — every cell produced a result;
  :attr:`Job.outcomes` carries per-cell
  :class:`~repro.session.outcome.RunOutcome` provenance;
- ``failed`` — at least one cell raised even after its bounded retry;
  :attr:`Job.failure` carries the
  :class:`~repro.session.outcome.CellFailure` diagnostic;
- ``rejected`` — refused at admission (queue full → backpressure with
  :attr:`Job.retry_after`; or the cell budget was exceeded);
- ``timeout`` — the job's wall-clock deadline expired before its
  results were ready (queued or mid-run; partial results are
  discarded, the shared cache still keeps whatever completed).

:class:`ServiceEvent` is the service's JSONL telemetry record — shaped
for the same :class:`~repro.observability.sinks.EventSink` protocol the
simulation's arbitration events stream through, so one sink
implementation serves both layers.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, ServiceError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.session.outcome import CellFailure, RunOutcome
    from repro.session.planner import RunPlan
    from repro.session.request import RunRequest
    from repro.stats.summary import RunResult

__all__ = [
    "JOB_QUEUED",
    "JOB_RUNNING",
    "JOB_DONE",
    "JOB_FAILED",
    "JOB_REJECTED",
    "JOB_TIMEOUT",
    "TERMINAL_STATES",
    "JobBudget",
    "Job",
    "ServiceEvent",
]

#: Job lifecycle states.  ``queued`` and ``running`` are transient;
#: everything in :data:`TERMINAL_STATES` is final and set exactly once.
JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"
JOB_REJECTED = "rejected"
JOB_TIMEOUT = "timeout"

TERMINAL_STATES = frozenset({JOB_DONE, JOB_FAILED, JOB_REJECTED, JOB_TIMEOUT})


@dataclass(frozen=True)
class JobBudget:
    """Per-job resource bounds, both optional.

    Attributes
    ----------
    deadline:
        Wall-clock seconds from admission; past it the job is cancelled
        and finishes ``timeout``.  ``0`` is legal and expires the job at
        dispatch (useful for probing queue latency).
    max_cells:
        Most simulation cells the job may carry; a larger job is
        ``rejected`` at admission, before any work is queued.
    """

    deadline: Optional[float] = None
    max_cells: Optional[int] = None

    def __post_init__(self) -> None:
        if self.deadline is not None and self.deadline < 0.0:
            raise ConfigurationError(
                f"job deadline must be >= 0 seconds, got {self.deadline}"
            )
        if self.max_cells is not None and self.max_cells < 1:
            raise ConfigurationError(
                f"job max_cells must be >= 1, got {self.max_cells}"
            )


class Job:
    """One submitted batch of requests and its lifecycle.

    State transitions are made by the service only; clients observe via
    :meth:`wait` / :attr:`state` / :meth:`results`.  The completion
    event makes ``wait`` safe from any thread (and from the asyncio
    front end via a thread executor).
    """

    def __init__(
        self,
        job_id: str,
        requests: Sequence["RunRequest"],
        budget: JobBudget = JobBudget(),
        tag: Optional[str] = None,
        clock=time.monotonic,
    ) -> None:
        self.job_id = job_id
        self.requests: Tuple["RunRequest", ...] = tuple(requests)
        self.budget = budget
        self.tag = tag
        self._clock = clock
        self.submitted_at = clock()
        self.deadline_at: Optional[float] = (
            self.submitted_at + budget.deadline if budget.deadline is not None else None
        )
        self.state = JOB_QUEUED
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        #: Replay count: how many times this job's cells were re-submitted
        #: after a worker crash (bounded by the service's retry policy).
        self.attempts = 0
        self.outcomes: Optional[List["RunOutcome"]] = None
        self.error: Optional[str] = None
        self.failure: Optional["CellFailure"] = None
        #: Backpressure hint on rejection: seconds to wait before retrying.
        self.retry_after: Optional[float] = None
        #: The job's plan from admission, so the dispatcher neither
        #: hashes its requests again nor re-reads its cache hits.
        self.plan: Optional["RunPlan"] = None
        #: The service's store count before that plan was made: the
        #: dispatcher re-reads a miss of the plan only if the service
        #: stored its key after this mark.
        self.stores_before = 0
        self._finished = threading.Event()

    # -- observation ----------------------------------------------------------

    @property
    def cells(self) -> int:
        return len(self.requests)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def expired(self, now: Optional[float] = None) -> bool:
        """True once the wall-clock deadline has passed."""
        if self.deadline_at is None:
            return False
        return (now if now is not None else self._clock()) >= self.deadline_at

    def remaining(self, now: Optional[float] = None) -> Optional[float]:
        """Seconds left before the deadline (``None`` = unbounded)."""
        if self.deadline_at is None:
            return None
        return self.deadline_at - (now if now is not None else self._clock())

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job is terminal; True if it finished in time."""
        return self._finished.wait(timeout)

    def results(self) -> List["RunResult"]:
        """The per-request results of a ``done`` job, in request order.

        Raises :class:`~repro.errors.ServiceError` for any other state,
        naming the state and diagnostic so callers need no state machine
        of their own.
        """
        if self.state == JOB_DONE:
            assert self.outcomes is not None
            return [outcome.result for outcome in self.outcomes]
        detail = f": {self.error}" if self.error else ""
        raise ServiceError(
            f"job {self.job_id} has no results (state {self.state!r}{detail})"
        )

    def describe(self) -> dict:
        """A JSON-safe summary (the wire answer to ``status``/``wait``).

        Results travel as summary statistics, not pickles: the service
        protocol is diagnostic/consumer-facing, while byte-exact result
        objects stay on the programmatic path (shared cache + session).
        """
        doc = {
            "job_id": self.job_id,
            "state": self.state,
            "cells": self.cells,
            "tag": self.tag,
            "attempts": self.attempts,
            "error": self.error,
            "retry_after": self.retry_after,
            "elapsed": (
                round(self.finished_at - self.submitted_at, 6)
                if self.finished_at is not None
                else None
            ),
        }
        if self.state == JOB_DONE and self.outcomes is not None:
            doc["results"] = [_summarise(outcome) for outcome in self.outcomes]
        if self.failure is not None:
            doc["failure"] = str(self.failure)
        return doc

    # -- transitions (service-internal) ---------------------------------------

    def _start(self) -> None:
        if self.started_at is None:
            self.started_at = self._clock()
        self.state = JOB_RUNNING

    def _finish(
        self,
        state: str,
        outcomes: Optional[List["RunOutcome"]] = None,
        error: Optional[str] = None,
        failure: Optional["CellFailure"] = None,
        retry_after: Optional[float] = None,
    ) -> None:
        if self.terminal:  # terminal states are written exactly once
            return
        assert state in TERMINAL_STATES, state
        self.state = state
        self.outcomes = outcomes
        self.error = error
        self.failure = failure
        self.retry_after = retry_after
        self.finished_at = self._clock()
        self._finished.set()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Job({self.job_id!r}, state={self.state!r}, cells={self.cells})"


def _summarise(outcome: "RunOutcome") -> dict:
    """One cell's wire summary: headline metrics plus provenance."""
    result = outcome.result
    doc: dict = {
        "protocol": outcome.request.protocol,
        "scenario": outcome.request.scenario.name,
        "route": outcome.route,
        "cached": outcome.cached,
    }
    if result is None:  # pragma: no cover - done jobs always carry results
        return doc
    doc["utilization"] = result.utilization
    doc["failed"] = result.failed
    try:
        doc["throughput"] = result.system_throughput().mean
        doc["mean_waiting"] = result.mean_waiting().mean
    except Exception:
        # A failed (watchdog-gave-up) run may lack enough batches for
        # interval estimates; the summary stays partial rather than
        # failing the status call.
        pass
    return doc


@dataclass(frozen=True)
class ServiceEvent:
    """One service-lifecycle telemetry record (JSONL via an EventSink).

    Attributes
    ----------
    seq:
        Monotone per-service sequence number (stream order).
    kind:
        What happened: ``admit``, ``reject``, ``dispatch``, ``retry``,
        ``degrade``, ``deadline`` or ``terminal``.
    job_id:
        The job concerned (empty for service-wide events).
    state:
        The job's state after the event.
    detail:
        Free-form diagnostic (rejection reason, crash description).
    """

    seq: int
    kind: str
    job_id: str
    state: str
    detail: str = ""

    def to_json(self) -> str:
        """Canonical single-line JSON (sorted keys, no whitespace)."""
        return json.dumps(
            {
                "seq": self.seq,
                "kind": self.kind,
                "job_id": self.job_id,
                "state": self.state,
                "detail": self.detail,
            },
            sort_keys=True,
            separators=(",", ":"),
        )

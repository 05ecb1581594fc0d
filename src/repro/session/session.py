"""The synchronous session facade: submit requests, gather outcomes.

A :class:`Session` queues :class:`~repro.session.request.RunRequest`\\ s
through :meth:`~Session.submit`, then :meth:`~Session.gather`\\ s the
batch — one planned, deduplicated, lane-packed, cached, pool-backed run
of its executor — and returns
:class:`~repro.session.outcome.RunOutcome`\\ s in submission order.
Identical requests within one gather (same epoch-6 content hash) run
once and every repeat answers with ``route="dedup"``; that is a planner
step (:func:`~repro.session.planner.plan_runs`), so it holds for every
executor that plans with it — the sweep executor and the
:class:`~repro.service.service.ArbitrationService` alike.

A session also satisfies the executor duck type the experiment grids
accept (``run_requests`` / ``simulate``), so one session can back the
tables, the robustness grid and ad-hoc runs alike.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.session.control import RunControl
from repro.session.outcome import RunOutcome, SessionStats
from repro.session.request import RunRequest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.experiments.cache import ResultCache
    from repro.experiments.runner import SimulationSettings
    from repro.experiments.sweep import SweepExecutor
    from repro.stats.summary import RunResult
    from repro.workload.scenarios import ScenarioSpec

__all__ = ["Session"]


class Session:
    """Synchronous run orchestration over one sweep executor.

    Parameters
    ----------
    jobs:
        Worker processes for the executor backend (``0`` = one per
        core; default ``$REPRO_JOBS`` or serial).
    cache:
        Optional :class:`~repro.experiments.cache.ResultCache` shared
        by every gather.
    engine:
        Optional engine override applied to every request (validated;
        ``None`` respects each request's own declaration).
    executor:
        An existing :class:`~repro.experiments.sweep.SweepExecutor` to
        reuse (its jobs/cache/engine then win); built from the other
        arguments when omitted.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache: Optional["ResultCache"] = None,
        engine: Optional[str] = None,
        executor: Optional["SweepExecutor"] = None,
    ) -> None:
        if executor is None:
            from repro.experiments.sweep import SweepExecutor

            executor = SweepExecutor(jobs=jobs, cache=cache, engine=engine)
        self.executor = executor
        self._pending: List[RunRequest] = []

    @property
    def stats(self) -> SessionStats:
        """The backing executor's accounting (shared, cumulative)."""
        return self.executor.stats

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

    # -- executor duck type ---------------------------------------------------

    def run_requests(
        self,
        requests: Sequence[RunRequest],
        control: Optional[RunControl] = None,
    ) -> List[RunOutcome]:
        """One deduplicated run of ``requests`` on the executor, in order.

        ``control`` (a :class:`~repro.session.control.RunControl`)
        installs cooperative cancellation/deadline checks for the whole
        gather; see :func:`repro.session.execute.execute_plan`.
        """
        if control is not None:
            return self.executor.run_requests(requests, control=control)
        # Keep the bare duck-type call so minimal executors (tests,
        # adapters) need not grow the keyword until they need it.
        return self.executor.run_requests(requests)

    def simulate(
        self,
        scenario: "ScenarioSpec",
        protocol: str,
        settings: Optional["SimulationSettings"] = None,
    ) -> "RunResult":
        """Single-run convenience: submit, gather, return the result."""
        request = RunRequest(scenario, protocol, settings)
        return self.run_requests([request])[0].result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Session(pending={len(self._pending)}, "
            f"executor={self.executor!r})"
        )

"""Arbitration-as-a-service: the fault-tolerant job layer.

:class:`ArbitrationService` turns the synchronous session layer into a
multi-client serving system with the paper's own virtues — bounded
state, liveness under contention, graceful degradation:

- **admission** is a bounded queue with explicit backpressure
  (:mod:`repro.service.admission`): a full queue refuses the job with a
  ``retry_after`` hint, never buffers unboundedly;
- **execution** runs each dispatch gather through the session core
  (:func:`~repro.session.planner.plan_runs` then
  :func:`~repro.session.execute.execute_plan`) — cache hits replay from
  the shared content-addressed store, identical requests from different
  clients dedup to one run, lane-pack misses run as lane
  packs on the sharded process pool
  (:mod:`repro.service.shards`), per-cell misses fan out by content
  hash;
- **robustness** is the headline: per-job wall-clock deadlines and cell
  budgets enforced with cancellation, the pool's crash ladder (bounded
  replay with deterministic jittered backoff on worker crashes,
  degradation to serial in-process execution when the pool is
  irrecoverable, one retry for a raising cell), and the terminal-state
  guarantee — every accepted job finishes exactly one of
  ``done`` / ``failed`` / ``rejected`` / ``timeout``, carrying
  :class:`~repro.session.outcome.RunOutcome` provenance or a
  :class:`~repro.session.outcome.CellFailure` diagnostic;
- **observability**: ``service.*`` counters (job lifecycle counts on a
  :class:`~repro.observability.metrics.MetricsRegistry`, plan and pool
  counts read from ``SessionStats`` and ``ShardPool``) and JSONL
  lifecycle telemetry through the same
  :class:`~repro.observability.sinks.EventSink` protocol the simulation
  events use.

The service also has the executor surface ``Session(executor=...)``
delegates to (``run_requests`` / ``stats``), so an experiment grid can
be pointed at a running service unchanged.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Union

from repro.errors import CancelledRunError, ConfigurationError, ServiceError
from repro.observability.metrics import MetricsRegistry
from repro.observability.sinks import EventSink, JsonlSink
from repro.service.admission import AdmissionController
from repro.service.backoff import BackoffPolicy
from repro.service.jobs import (
    JOB_DONE,
    JOB_FAILED,
    JOB_REJECTED,
    JOB_TIMEOUT,
    Job,
    JobBudget,
    ServiceEvent,
)
from repro.service.shards import ShardPool
from repro.session.control import RunControl
from repro.session.execute import execute_plan
from repro.session.outcome import (
    ROUTE_CACHE,
    ROUTE_DEDUP,
    CellFailure,
    RunOutcome,
    SessionStats,
)
from repro.session.planner import RunPlan, plan_runs
from repro.session.request import RunRequest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.experiments.cache import ResultCache
    from repro.experiments.runner import SimulationSettings
    from repro.stats.summary import RunResult
    from repro.workload.scenarios import ScenarioSpec

__all__ = ["ServiceConfig", "ArbitrationService"]


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one :class:`ArbitrationService`.

    Attributes
    ----------
    queue_limit:
        Admission queue capacity (jobs); beyond it submissions are
        rejected with backpressure.
    gather_limit:
        Most jobs one dispatch gathers — the batching window that lets
        cross-client dedup and lane packing happen.
    shards / workers:
        Process-pool topology (see :class:`~repro.service.shards.
        ShardPool`).
    serial:
        Skip process pools entirely and execute in-process (bench
        harnesses, platforms without ``fork``).  Counted as neither a
        crash nor a degradation.
    max_replays:
        Times one payload may be replayed after worker crashes before
        it runs serially in-process instead.
    max_respawns:
        Cumulative shard respawns before the pool is declared
        irrecoverable and the service degrades to serial execution.
    backoff:
        Respawn/replay pacing (deterministic jittered exponential).
    default_deadline / default_max_cells:
        Budgets applied to jobs that do not bring their own.
    retry_after:
        Base backpressure hint (seconds), scaled by backlog.
    job_retention:
        Most finished jobs kept queryable in the registry.  Beyond it
        the oldest *terminal* jobs are evicted (their states fold into
        aggregate counts), so a long-running service holds bounded
        state however many jobs it has served; active jobs are never
        evicted.
    poll_interval:
        Dispatcher wait granularity: how long an idle dispatcher waits
        for admitted jobs before it re-checks for shutdown.
    jsonl_path:
        When set (and no explicit sink is given), lifecycle telemetry
        streams as JSON lines to this path via a service-owned
        :class:`~repro.observability.sinks.JsonlSink`.
    """

    queue_limit: int = 64
    gather_limit: int = 16
    shards: int = 2
    workers: int = 1
    serial: bool = False
    max_replays: int = 1
    max_respawns: int = 4
    backoff: BackoffPolicy = field(default_factory=BackoffPolicy)
    default_deadline: Optional[float] = None
    default_max_cells: Optional[int] = None
    retry_after: float = 0.05
    poll_interval: float = 0.05
    job_retention: int = 1024
    jsonl_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.gather_limit < 1:
            raise ConfigurationError(
                f"gather_limit must be >= 1, got {self.gather_limit}"
            )
        if self.max_replays < 0:
            raise ConfigurationError(
                f"max_replays must be >= 0, got {self.max_replays}"
            )
        if self.poll_interval <= 0.0:
            raise ConfigurationError(
                f"poll_interval must be > 0, got {self.poll_interval}"
            )
        if self.job_retention < 1:
            raise ConfigurationError(
                f"job_retention must be >= 1, got {self.job_retention}"
            )
        if self.default_deadline is not None and self.default_deadline < 0.0:
            raise ConfigurationError(
                f"default_deadline must be >= 0, got {self.default_deadline}"
            )


class ArbitrationService:
    """The fault-tolerant async job layer over the session stack.

    Parameters
    ----------
    cache:
        The shared content-addressed
        :class:`~repro.experiments.cache.ResultCache` every client's
        hits replay from; ``None`` disables caching (dedup within a
        gather still works).
    config:
        A :class:`ServiceConfig`; defaults are sized for a local
        many-client workload.
    sink:
        Lifecycle telemetry sink (any
        :class:`~repro.observability.sinks.EventSink`); overrides
        ``config.jsonl_path``.
    """

    def __init__(
        self,
        cache: Optional["ResultCache"] = None,
        config: Optional[ServiceConfig] = None,
        sink: Optional[EventSink] = None,
    ) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.cache = cache
        self.metrics = MetricsRegistry()
        self.admission = AdmissionController(
            limit=self.config.queue_limit, retry_after=self.config.retry_after
        )
        self.pool = ShardPool(
            shards=self.config.shards,
            workers=self.config.workers,
            backoff=self.config.backoff,
            max_respawns=self.config.max_respawns,
            max_replays=self.config.max_replays,
        )
        if self.config.serial:
            self.pool.degrade("serial execution configured")
        #: The same :class:`SessionStats` accounting a session keeps,
        #: so ``Session(executor=service).stats`` is this one.
        self.stats = SessionStats()
        self._owns_sink = False
        if sink is None and self.config.jsonl_path is not None:
            sink = JsonlSink(self.config.jsonl_path)
            self._owns_sink = True
        self._sink = sink
        self._seq = 0
        self._jobs: Dict[str, Job] = {}
        #: Aggregate states of jobs evicted from the bounded registry.
        self._evicted: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._dispatcher: Optional[threading.Thread] = None
        self._stopped = threading.Event()
        self._closing = False

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "ArbitrationService":
        """Start the dispatcher thread (idempotent; submit() does this)."""
        with self._lock:
            if self._dispatcher is None:
                self._dispatcher = threading.Thread(
                    target=self._dispatch_loop, name="repro-service", daemon=True
                )
                self._dispatcher.start()
        return self

    def close(self, drain: bool = True, timeout: Optional[float] = 30.0) -> None:
        """Stop accepting work and shut the back end down.

        ``drain=True`` (default) lets already-queued jobs dispatch
        first; ``drain=False`` fails them terminally (``failed`` with a
        ``service stopped`` diagnostic) — either way no accepted job is
        left in a non-terminal state.
        """
        self._closing = True
        self.admission.close()
        if not drain:
            for job in self.admission.take(self.config.queue_limit * 2, timeout=0):
                self._fail(job, "service stopped before dispatch")
        if self._dispatcher is not None:
            self._stopped.wait(timeout)
            self._dispatcher.join(timeout)
        self.pool.close()
        if self._owns_sink and self._sink is not None:
            self._sink.close()

    def __enter__(self) -> "ArbitrationService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- submission -----------------------------------------------------------

    def submit(
        self,
        requests: Union[RunRequest, Sequence[RunRequest]],
        deadline: Optional[float] = None,
        max_cells: Optional[int] = None,
        tag: Optional[str] = None,
    ) -> Job:
        """Admit a job (one or more requests) and return it immediately.

        The job is planned here, in the caller's thread.  When every
        request is a cache hit or a repeat of an earlier request of the
        job, it is answered here too: it is ``done`` (or ``timeout``, if
        its deadline has already passed) on return, without entering the
        queue, so backpressure never refuses it.  Any other returned
        :class:`~repro.service.jobs.Job` may already be terminal:
        ``rejected`` when the queue is full (backpressure — honour
        ``retry_after``) or the cell budget is exceeded.  Otherwise it is
        ``queued`` and will reach a terminal state without further
        action from the caller.
        """
        if isinstance(requests, RunRequest):
            requests = [requests]
        budget = JobBudget(
            deadline=deadline if deadline is not None else self.config.default_deadline,
            max_cells=max_cells if max_cells is not None else self.config.default_max_cells,
        )
        with self._lock:
            job_id = f"job-{next(self._ids):06d}"
        job = Job(job_id, requests, budget=budget, tag=tag)
        with self._lock:
            self._jobs[job_id] = job
            self._evict_terminal_locked()
        if not job.requests:
            job._finish(JOB_DONE, outcomes=[])
            self._count("service.done")
            self._emit("terminal", job, "empty job")
            return job
        if budget.max_cells is not None and job.cells > budget.max_cells:
            job._finish(
                JOB_REJECTED,
                error=f"budget exceeded: {job.cells} cells > max_cells {budget.max_cells}",
            )
            self._count("service.rejected")
            self._emit("reject", job, "cell budget")
            return job
        if self._closing:
            job._finish(JOB_REJECTED, error="service is shutting down")
            self._count("service.rejected")
            self._emit("reject", job, "closing")
            return job
        try:
            plan = plan_runs(job.requests, self.cache)
        except Exception:
            plan = None  # the dispatcher meets the error again and fails the job
        if plan is not None:
            if all(run.route in (ROUTE_CACHE, ROUTE_DEDUP) for run in plan.runs):
                self._answer(job, plan)
                return job
            job.plan = plan

        def admitted() -> None:
            self._count("service.queued")
            self._emit("admit", job)

        retry_after = self.admission.offer(job, admitted)
        if retry_after is not None:
            job._finish(
                JOB_REJECTED,
                error=(
                    f"queue full ({self.admission.limit} jobs); "
                    f"retry in {retry_after:.3f}s"
                ),
                retry_after=retry_after,
            )
            self._count("service.rejected")
            self._emit("reject", job, "backpressure")
            return job
        self.start()
        return job

    # -- observation ----------------------------------------------------------

    def job(self, job_id: str) -> Job:
        """The job registered under ``job_id`` (ServiceError if unknown).

        A terminal job older than the newest ``job_retention`` finishes
        is no longer queryable — its state lives on only in aggregate
        (:meth:`stats_snapshot`).
        """
        try:
            return self._jobs[job_id]
        except KeyError:
            raise ServiceError(
                f"unknown job id {job_id!r} (never submitted, or evicted "
                f"after the {self.config.job_retention}-job retention window)"
            ) from None

    def _evict_terminal_locked(self) -> None:
        """Cap the registry: oldest terminal jobs beyond the retention
        limit fold into :attr:`_evicted` (caller holds ``_lock``)."""
        excess = len(self._jobs) - self.config.job_retention
        if excess <= 0:
            return
        # The oldest jobs are usually terminal, so this stops after
        # ``excess`` of them instead of walking the whole registry.
        terminal = (j for j, job in self._jobs.items() if job.terminal)
        for job_id in list(itertools.islice(terminal, excess)):
            job = self._jobs.pop(job_id)
            self._evicted[job.state] = self._evicted.get(job.state, 0) + 1

    def stats_snapshot(self) -> dict:
        """JSON-safe service state: counters, backlog, pool health."""
        with self._lock:
            states: Dict[str, int] = dict(self._evicted)
            jobs = list(self._jobs.values())
            own = {name: c.value for name, c in self.metrics.counters().items()}
        for job in jobs:
            states[job.state] = states.get(job.state, 0) + 1
        # Plan and pool counts are read from their owners, live.
        counters = {
            "service.cache_hits": self.stats.cache_hits,
            "service.executed": self.stats.executed,
            "service.deduplicated": self.stats.deduplicated,
            "service.crashes": self.pool.crashes,
            "service.retried": self.pool.replays,
        }
        counters.update(own)
        return {
            "counters": counters,
            "backlog": len(self.admission),
            "queue_limit": self.admission.limit,
            "high_water": self.admission.high_water,
            "jobs": states,
            "pool": self.pool.describe(),
        }

    # -- executor surface -----------------------------------------------------

    def run_requests(
        self,
        requests: Sequence[RunRequest],
        control: Optional[RunControl] = None,
    ) -> List[RunOutcome]:
        """Submit one job for ``requests`` and block for its outcomes.

        The call ``Session(executor=service)`` delegates to, so a grid
        can run against a service (shared cache, sharded pool)
        unchanged.  Raises on any non-``done`` terminal state.
        """
        deadline = None
        if control is not None and control.remaining() is not None:
            deadline = max(control.remaining(), 0.0)
        job = self.submit(list(requests), deadline=deadline)
        job.wait()
        if job.state != JOB_DONE:
            raise ServiceError(
                f"job {job.job_id} finished {job.state!r}: {job.error}"
            )
        assert job.outcomes is not None
        return job.outcomes

    def simulate(
        self,
        scenario: "ScenarioSpec",
        protocol: str,
        settings: Optional["SimulationSettings"] = None,
    ) -> "RunResult":
        """Single-run convenience: one request, one blocking job."""
        outcomes = self.run_requests([RunRequest(scenario, protocol, settings)])
        return outcomes[0].result

    # -- internals ------------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        with self._lock:  # client threads and the dispatcher both count
            self.metrics.counter(name).increment(amount)

    def _emit(self, kind: str, job: Optional[Job] = None, detail: str = "") -> None:
        if self._sink is None:
            return
        with self._lock:
            seq = self._seq
            self._seq += 1
        event = ServiceEvent(
            seq=seq,
            kind=kind,
            job_id=job.job_id if job is not None else "",
            state=job.state if job is not None else "",
            detail=detail,
        )
        try:
            self._sink.emit(event)
        except Exception:  # telemetry must never perturb the service
            pass

    def _fail(self, job: Job, error: str, failure: Optional[CellFailure] = None) -> None:
        # Count before finishing: a waiter that wakes on the terminal
        # state must already see the counter.
        self._count("service.failed")
        job._finish(JOB_FAILED, error=error, failure=failure)
        self._emit("terminal", job, error)

    def _expire(self, job: Job) -> None:
        self._count("service.deadline_exceeded")
        job._finish(
            JOB_TIMEOUT,
            error=f"deadline expired after {job.budget.deadline:.3f}s",
        )
        self._emit("deadline", job)

    def _answer(self, job: Job, plan: RunPlan) -> None:
        """Finish an all-hit job in the submitting thread.

        The plan holds only ``cache`` and ``dedup`` runs, so the same
        :func:`~repro.session.execute.execute_plan` answers it without a
        backend: the job goes ``admit`` -> ``terminal`` with no queue
        wait and no ``dispatch`` event.
        """
        self._emit("admit", job)
        if job.expired():
            self._expire(job)
            return
        job._start()
        outcomes = execute_plan(plan, self.cache, self.stats)
        self._count("service.done")
        job._finish(JOB_DONE, outcomes=outcomes)
        self._emit("terminal", job)

    def _dispatch_loop(self) -> None:
        try:
            while True:
                jobs = self.admission.take(
                    self.config.gather_limit, timeout=self.config.poll_interval
                )
                if not jobs:
                    if self.admission.closed and not len(self.admission):
                        return
                    continue
                try:
                    self._dispatch(jobs)
                except Exception as exc:
                    # The terminal-state guarantee's last line of defence:
                    # an unexpected orchestration error fails the whole
                    # gather loudly instead of stranding jobs.
                    detail = f"internal dispatch failure ({type(exc).__name__}: {exc})"
                    for job in jobs:
                        if not job.terminal:
                            self._fail(job, detail)
        finally:
            self._stopped.set()

    def _dispatch(self, jobs: List[Job]) -> None:
        """Run one gathered batch of jobs to their terminal states.

        Three steps: expire jobs already past their deadline; run every
        live job's requests as one plan (:meth:`_execute`); map the
        outcomes back to jobs.
        """
        now = time.monotonic()
        live: List[Job] = []
        for job in jobs:
            if job.expired(now):
                self._expire(job)
            else:
                job._start()
                live.append(job)
        if not live:
            return
        self._emit("dispatch", detail=f"{len(live)} job(s)")
        outcomes = self._execute(live)
        now = time.monotonic()
        position = 0
        for job in live:
            count = len(job.requests)
            mine = outcomes[position : position + count] if outcomes is not None else []
            position += count
            if outcomes is None or job.expired(now):
                self._expire(job)
                continue
            failure = next(
                (
                    replace(outcome.failure, index=slot, tag=job.tag)
                    for slot, outcome in enumerate(mine)
                    if outcome.failure is not None
                ),
                None,
            )
            if failure is not None:
                self._fail(job, str(failure), failure)
            else:
                self._count("service.done")
                job._finish(JOB_DONE, outcomes=mine)
                self._emit("terminal", job)

    def _execute(self, live: List[Job]) -> Optional[List[RunOutcome]]:
        """Plan and execute the live jobs' requests on the shard pool.

        The same ``plan_runs`` + ``execute_plan`` core every caller runs
        (cross-client dedup, cache replay, lane packs, the pool's crash
        ladder), stopped early only once every live job's deadline has
        passed (then ``None``).  The admission plans are passed in, so
        no request is hashed again, and a request that hit the cache at
        admission is not read from it again.  The pool's and the
        plan's accounting stays on :attr:`pool` and :attr:`stats`, where
        :meth:`stats_snapshot` reads it.
        """
        requests = [request for job in live for request in job.requests]
        earlier = None
        if all(job.plan is not None for job in live):
            earlier = [run for job in live for run in job.plan.runs]
        plan = plan_runs(requests, self.cache, earlier=earlier)
        keys = {id(run.request): run.key for run in plan.runs}
        lane_keys = [run.key for run in plan.lane_runs]
        deadlines = [job.deadline_at for job in live]
        control = RunControl(None if None in deadlines else max(deadlines))
        pool, stats = self.pool, self.stats
        replays, degraded = pool.replays, pool.degraded
        outcomes: Optional[List[RunOutcome]] = None
        try:
            outcomes = execute_plan(
                plan,
                self.cache,
                stats,
                lane_runner=lambda cells: pool.run_lanes(cells, lane_keys, control),
                direct_runner=lambda requests: pool.run_cells(
                    requests, [keys[id(request)] for request in requests], stats, control
                ),
                control=control,
            )
        except CancelledRunError:
            pass  # every live job's deadline passed mid-run
        replayed = pool.replays - replays
        if replayed:
            for job in live:
                job.attempts += replayed
            self._emit("retry", detail=f"{replayed} replay(s) after worker crash")
        if pool.degraded and not degraded:
            self._count("service.degraded")
            self._emit("degrade", detail=pool.degraded_reason or "")
        return outcomes

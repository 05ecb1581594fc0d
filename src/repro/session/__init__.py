"""Run orchestration: request → plan → outcome.

The session layer is the single place engine selection, lane packing,
cache lookup and graceful degradation are decided.  Every entry point —
:func:`~repro.experiments.runner.run_simulation`, the robustness
grid, all experiment tables, the arbitration service and the CLI —
routes through it:

- :class:`RunRequest` (:mod:`repro.session.request`): one requested
  simulation — scenario, protocol, settings, tag — with a
  JSON-round-trippable wire format;
- :func:`plan_runs` (:mod:`repro.session.planner`): resolves requests
  into a :class:`RunPlan` — one epoch-6 hash per request, within-batch
  dedup, cache lookup, engine choice via
  :func:`repro.engine.batch.batch_capable`, lane packing;
- :func:`execute_plan` (:mod:`repro.session.execute`): runs the plan
  against injected backends and returns :class:`RunOutcome`\\ s
  carrying the :class:`~repro.stats.summary.RunResult`, cache
  provenance, whether a failed lane pack demoted the run to the event
  engine (the one place a batch-capable cell is demoted) and
  :class:`CellFailure` degradation;
- :class:`Session` (:mod:`repro.session.session`): the one executor —
  plans and executes request batches (submit/gather or
  ``run_requests``) on a per-cell process pool, or delegates them to
  another executor such as the arbitration service.

The layering rule: this package never imports
:mod:`repro.experiments` or :mod:`repro.service` at module level (both
import session right back); those references resolve lazily at call
time.
"""

from repro.session.execute import execute_plan
from repro.session.outcome import CellFailure, RunOutcome, SessionStats
from repro.session.planner import (
    ENGINES,
    PlannedRun,
    RunPlan,
    normalize_engine,
    plan_runs,
)
from repro.session.request import RunRequest
from repro.session.session import Session
from repro.session.single import run_cell, run_cell_event

__all__ = [
    "RunRequest",
    "RunOutcome",
    "CellFailure",
    "SessionStats",
    "PlannedRun",
    "RunPlan",
    "plan_runs",
    "execute_plan",
    "run_cell",
    "run_cell_event",
    "Session",
    "ENGINES",
    "normalize_engine",
]

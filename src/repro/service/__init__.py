"""Arbitration-as-a-service: the fault-tolerant async job layer.

The package splits along the failure ladder it implements:

- :mod:`repro.service.backoff` — deterministic jittered exponential
  backoff, the one retry-pacing vocabulary every layer shares;
- :mod:`repro.service.jobs` — jobs, budgets, terminal states, and the
  service's JSONL telemetry record;
- :mod:`repro.service.admission` — the bounded queue with explicit
  backpressure;
- :mod:`repro.service.shards` — the sharded process-pool back end with
  respawn and graceful degradation;
- :mod:`repro.service.service` — :class:`ArbitrationService`, the
  orchestrator tying those together over the session planner;
- :mod:`repro.service.server` / :mod:`repro.service.client` — the
  asyncio socket front end and its synchronous client.

The light vocabulary (backoff, jobs, admission, shards) imports
eagerly; the heavier orchestration and I/O layers resolve lazily on
first attribute access, so a :class:`~repro.session.session.Session`
that reaches for :class:`ShardPool` does not drag asyncio and the
socket front end into every grid.
"""

from repro.service.admission import AdmissionController
from repro.service.backoff import BackoffPolicy
from repro.service.jobs import (
    JOB_DONE,
    JOB_FAILED,
    JOB_QUEUED,
    JOB_REJECTED,
    JOB_RUNNING,
    JOB_TIMEOUT,
    TERMINAL_STATES,
    Job,
    JobBudget,
    ServiceEvent,
)
from repro.service.shards import ShardPool

__all__ = [
    "AdmissionController",
    "ArbitrationService",
    "BackoffPolicy",
    "JOB_DONE",
    "JOB_FAILED",
    "JOB_QUEUED",
    "JOB_REJECTED",
    "JOB_RUNNING",
    "JOB_TIMEOUT",
    "Job",
    "JobBudget",
    "ServiceClient",
    "ServiceConfig",
    "ServiceEvent",
    "ServiceServer",
    "ShardPool",
    "TERMINAL_STATES",
    "default_socket_path",
    "serve",
]

_LAZY = {
    "ArbitrationService": "repro.service.service",
    "ServiceConfig": "repro.service.service",
    "ServiceServer": "repro.service.server",
    "default_socket_path": "repro.service.server",
    "serve": "repro.service.server",
    "ServiceClient": "repro.service.client",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(__all__)

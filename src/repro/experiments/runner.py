"""The single-run entry point of the experiment harness.

:func:`run_simulation` is the one place a scenario, a protocol name and
run-length settings meet; every experiment module and every example goes
through it.  Since the session refactor it is a thin delegate to
:func:`repro.session.single.run_cell` — engine dispatch and the
event-simulation body live in :mod:`repro.session` now — kept here so
the historical import path (and the process-pool pickling of sweep
payloads) stays stable.

Protocols live in the first-class registry
(:mod:`repro.protocols.registry`): each is a
:class:`~repro.protocols.registry.ProtocolSpec` declaring its factory
and capabilities, so scenario-vs-protocol mismatches (an ``r > 1``
scenario against a single-outstanding arbiter, an unknown name) are
rejected at configuration time with precise errors.  ``PROTOCOLS`` and
:func:`~repro.protocols.registry.make_arbiter` are re-exported here for
backward compatibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.bus.timing import BusTiming
from repro.bus.watchdog import WatchdogPolicy
from repro.faults.plan import FaultPlan
from repro.observability.events import TelemetrySettings
from repro.protocols.registry import PROTOCOLS, make_arbiter
from repro.session.planner import normalize_engine
from repro.stats.summary import RunResult
from repro.workload.scenarios import ScenarioSpec

__all__ = [
    "PROTOCOLS",
    "make_arbiter",
    "run_simulation",
    "SimulationSettings",
]


@dataclass(frozen=True)
class SimulationSettings:
    """Run-length and instrumentation knobs for one simulation.

    ``timing`` uses a ``default_factory`` so every settings object owns
    its own :class:`~repro.bus.timing.BusTiming` instance — a shared
    class-level default could silently alias timing overrides across
    settings objects if :class:`BusTiming` ever grew mutable state.

    ``fault_plan`` injects a deterministic fault schedule
    (:class:`~repro.faults.plan.FaultPlan`) into the run; a non-empty
    plan implies a bus watchdog (``watchdog`` overrides its policy).
    Both are part of the run's identity: the result cache keys on them.

    ``telemetry`` turns on the observability layer for the run
    (:class:`~repro.observability.events.TelemetrySettings`): retained
    :class:`~repro.observability.events.ArbitrationEvent` streams,
    accumulated metrics, or a JSONL trace file.  ``None`` (the
    default) leaves the bus with no sink at all, so every experiment
    output stays byte-identical with telemetry off.

    ``engine`` selects the execution engine: ``"batch"`` (the
    lane engine of :mod:`repro.engine.batch`, the default) or
    ``"event"`` (the general event-driven simulator).  The batch engine
    produces bit-identical results on its conformance-verified domain —
    which includes bus-level fault plans and watchdog recovery — and is
    a pure performance choice; cells outside that domain (more than
    one outstanding request per agent, out-of-domain fault kinds,
    protocols without a batch kernel, a ``max_events`` budget)
    transparently fall back to the event engine, so the default is
    safe everywhere.
    """

    batches: int = 10
    batch_size: int = 2500
    warmup: int = 1000
    keep_samples: bool = False
    keep_order: bool = False
    keep_records: bool = False
    seed: int = 12345
    timing: BusTiming = field(default_factory=BusTiming)
    confidence: float = 0.90
    max_events: Optional[int] = None
    fault_plan: Optional[FaultPlan] = None
    watchdog: Optional[WatchdogPolicy] = None
    telemetry: Optional[TelemetrySettings] = None
    engine: str = "batch"

    def __post_init__(self) -> None:
        normalize_engine(self.engine, allow_none=False)


def run_simulation(
    scenario: ScenarioSpec,
    protocol: str,
    settings: Optional[SimulationSettings] = None,
) -> RunResult:
    """Simulate one (scenario, protocol) pair and return its metrics.

    ``settings`` defaults to a fresh :class:`SimulationSettings` built
    per call — a signature-level default instance would be constructed
    once at import time and shared by every defaulted call.

    The random streams depend only on ``settings.seed`` and the agent
    identities, so two protocols run with the same seed see *identical*
    arrival processes — the common-random-numbers discipline behind the
    paper's protocol comparisons.
    """
    from repro.session.single import run_cell

    return run_cell(scenario, protocol, settings)

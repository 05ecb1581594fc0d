"""Golden-trace scenarios: the pinned event streams under ``tests/golden/``.

A golden trace is the canonical JSONL encoding of one short run's full
:class:`~repro.observability.events.ArbitrationEvent` stream, checked
into the repository and compared *byte for byte* by the conformance
suite.  Any engine change that perturbs arbitration order, settle
accounting or the event schema trips the comparison — and because the
stored artefact is a line-per-event diff-able text file, the failure
shows exactly which arbitrations moved.

This module is the single source of truth for what those runs are; both
the regression test (``tests/conformance/test_golden_traces.py``) and
the regeneration script (``scripts/regen_golden.py``) call
:func:`golden_trace_lines`, so they can never disagree about the
scenario behind a file.

A golden pins a scenario, not an engine: every scenario sits inside the
lane engine's domain, and both engines must reproduce its one stored
file.  The event engine is the reference the files are written from.

The runs are deliberately tiny (a few hundred events) and pin *every*
knob explicitly — scale presets and environment variables have no say —
so the bytes depend only on the engine's code.  Floats serialise via
``repr`` (shortest round-trip), which is platform-stable on every
Python ≥ 3.1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import ConfigurationError

__all__ = [
    "GOLDEN_SEED",
    "GoldenScenario",
    "GOLDEN_SCENARIOS",
    "golden_names",
    "golden_trace_lines",
]

#: One seed for every golden run: the traces pin engine behaviour, not
#: seed sensitivity (the property and differential suites cover seeds).
GOLDEN_SEED = 19880530


@dataclass(frozen=True)
class GoldenScenario:
    """One pinned run: workload shape + protocol + exact run length."""

    protocol: str
    agents: int
    load: float
    #: Post-warmup completions retained, split into two batches of half
    #: this many each.
    completions: int = 80
    warmup: int = 10
    #: Why this particular cell is worth pinning.
    rationale: str = ""
    #: Faults per unit simulated time.  Non-zero turns the run into a
    #: fault-domain golden: a deterministic
    #: :class:`~repro.faults.plan.FaultPlan` (seeded from
    #: :data:`GOLDEN_SEED`, drawing every kind the protocol declares
    #: injectable) plus the default watchdog policy, so the trace pins
    #: anomaly emission, watchdog attempt counting and recovery
    #: scheduling — not just clean grants.
    fault_rate: float = 0.0
    #: Workload family behind the run.  ``closed`` is the original
    #: equal-load think-time population; ``mmpp-closed`` swaps the think
    #: times for closed-loop MMPP draws; ``poisson`` is an open-loop
    #: arrival scenario with one outstanding request per agent;
    #: ``bursty-priority`` is open-loop on-off MMPP with the two-class
    #: priority bit.  All four are inside the lane domain, so the
    #: golden suite replays each on both engines.
    workload: str = "closed"
    #: Bus clock period; non-zero pins the synchronous bus of §2.1,
    #: where arbitration starts and idle-bus grants wait for an edge.
    clock_period: float = 0.0


#: The pinned grid: one RR implementation per §3.1 flavour, one FCFS
#: strategy per §3.2 flavour, and the fixed-priority baseline whose
#: starvation behaviour Table 4.1 contrasts against.
GOLDEN_SCENARIOS: Dict[str, GoldenScenario] = {
    "rr": GoldenScenario(
        protocol="rr",
        agents=4,
        load=2.0,
        rationale="RR implementation 1: the §3.1 reference grant order",
    ),
    "rr-impl2": GoldenScenario(
        protocol="rr-impl2",
        agents=4,
        load=2.0,
        rationale="RR implementation 2: pins the low-request-line scan",
    ),
    "rr-impl3": GoldenScenario(
        protocol="rr-impl3",
        agents=4,
        load=2.0,
        rationale="RR implementation 3: pins the extra-round passes",
    ),
    "fcfs": GoldenScenario(
        protocol="fcfs",
        agents=4,
        load=2.0,
        rationale="FCFS strategy 1: window-tie grant order",
    ),
    "fcfs-aincr": GoldenScenario(
        protocol="fcfs-aincr",
        agents=4,
        load=2.0,
        rationale="FCFS strategy 2: arrival-exact grant order",
    ),
    "fixed": GoldenScenario(
        protocol="fixed",
        agents=4,
        load=2.0,
        rationale="fixed priority: the starvation baseline of Table 4.1",
    ),
    # Fault-domain goldens: a seeded bus-level fault plan and the
    # default watchdog.  The rate is tuned so the run completes while
    # exercising anomalies, deviated grants and watchdog retries — the
    # whole fault-recovery event vocabulary.
    "rr-faults": GoldenScenario(
        protocol="rr",
        agents=4,
        load=2.0,
        fault_rate=0.3,
        rationale="bus-level faults: anomaly/retry pinning",
    ),
    # Arbiter-level fault goldens: the §3.1 and §3.2 fault targets, whose
    # plans mix their own fault kind (dropped broadcasts, counter
    # upsets) with every bus-level one, so the trace pins those lane
    # fault timers next to line faults, dropout and watchdog recovery.
    "rr-register-faults": GoldenScenario(
        protocol="rr-faulty-register",
        agents=4,
        load=2.0,
        fault_rate=0.3,
        rationale="per-agent winner registers under dropped broadcasts (§3.1)",
    ),
    "fcfs-counter-faults": GoldenScenario(
        protocol="fcfs-glitchable",
        agents=4,
        load=2.0,
        fault_rate=0.3,
        rationale="FCFS counters under single-event upsets (§3.2)",
    ),
    # Arrival-layer goldens.  Closed-loop MMPP, open-loop Poisson (one
    # outstanding request per agent) and bursty two-class priority all
    # stay inside the lane domain (stateful distributions ride the
    # default sample_batch path in the growing blocks both engines draw
    # on demand, classed agents draw one think time per request).
    "mmpp-closed": GoldenScenario(
        protocol="rr",
        agents=4,
        load=2.0,
        workload="mmpp-closed",
        rationale="closed-loop MMPP think times: pins modulated RNG draws",
    ),
    "openloop-poisson": GoldenScenario(
        protocol="fcfs",
        agents=4,
        load=0.8,
        workload="poisson",
        rationale="open-loop Poisson arrivals: pins the free-running arrival clock",
    ),
    "openloop-bursty-priority": GoldenScenario(
        protocol="rr",
        agents=4,
        load=0.8,
        workload="bursty-priority",
        rationale="on-off bursty sources + §5 two-class overlay: pins MMPP "
        "phase flips and the priority bit in arbitration",
    ),
    # Synchronous bus.  The period divides neither the tenure nor the
    # settle time, so kicks after a release and grants after an
    # idle-bus settle both wait for an edge.
    "rr-sync": GoldenScenario(
        protocol="rr",
        agents=4,
        load=2.0,
        clock_period=0.3,
        rationale="synchronous bus: pins edge-aligned arbitration starts and grants",
    ),
}


def golden_names() -> Tuple[str, ...]:
    """The golden scenario names, in declaration order."""
    return tuple(GOLDEN_SCENARIOS)


def golden_trace_lines(name: str, engine: str) -> List[str]:
    """Run one golden scenario on ``engine`` and return its JSON lines.

    The returned list is exactly the content of
    ``tests/golden/<name>.jsonl`` (one line per event, no trailing
    newline included per line) on either engine.  ``"event"`` runs the
    event engine; ``"batch"`` calls the lane engine directly, so a
    scenario outside the lane domain raises
    :class:`~repro.errors.ConfigurationError` instead of falling back
    to the event engine.
    """
    try:
        golden = GOLDEN_SCENARIOS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown golden scenario {name!r}; have {sorted(GOLDEN_SCENARIOS)}"
        )
    # Imported here, not at module top: repro.experiments.runner imports
    # this package's event/sink modules, so a top-level import would put
    # a cycle one refactor away.
    from repro.bus.timing import BusTiming
    from repro.bus.watchdog import WatchdogPolicy
    from repro.engine.batch import run_simulation_batch
    from repro.experiments.runner import SimulationSettings, run_simulation
    from repro.faults.plan import FaultPlan
    from repro.observability.events import TelemetrySettings
    from repro.protocols.registry import get_spec
    from repro.workload.arrivals import MarkovModulatedPoisson, bursty_equal_load
    from repro.workload.scenarios import (
        AgentSpec,
        ScenarioSpec,
        equal_load,
        mean_interrequest_for_load,
        open_loop_equal_load,
    )

    if golden.workload == "closed":
        scenario = equal_load(golden.agents, golden.load)
    elif golden.workload == "mmpp-closed":
        # Symmetric switch rates make the stationary rate (l0 + l1) / 2,
        # so the long-run think mean matches the equal-load population's.
        mean = mean_interrequest_for_load(golden.load / golden.agents)
        scenario = ScenarioSpec(
            name=f"mmpp-closed-n{golden.agents}-L{golden.load:g}",
            agents=tuple(
                AgentSpec(
                    agent_id=i,
                    interrequest=MarkovModulatedPoisson(
                        (1.6 / mean, 0.4 / mean), (0.05, 0.05)
                    ),
                )
                for i in range(1, golden.agents + 1)
            ),
        )
    elif golden.workload == "poisson":
        scenario = open_loop_equal_load(golden.agents, golden.load, max_outstanding=1)
    elif golden.workload == "bursty-priority":
        scenario = bursty_equal_load(golden.agents, golden.load, urgent_fraction=0.3)
    else:
        raise ConfigurationError(
            f"unknown golden workload {golden.workload!r} in scenario {name!r}"
        )
    fault_plan = None
    watchdog = None
    if golden.fault_rate > 0.0:
        spec = get_spec(golden.protocol)
        fault_plan = FaultPlan.generate(
            seed=GOLDEN_SEED,
            rate=golden.fault_rate,
            horizon=float(golden.completions + golden.warmup),
            kinds=spec.injectable_faults,
            num_agents=golden.agents,
            line_span=spec.number_width(golden.agents) if spec.number_width else 4,
        )
        watchdog = WatchdogPolicy()
    settings = SimulationSettings(
        batches=2,
        batch_size=golden.completions // 2,
        warmup=golden.warmup,
        seed=GOLDEN_SEED,
        fault_plan=fault_plan,
        watchdog=watchdog,
        timing=BusTiming(clock_period=golden.clock_period),
        telemetry=TelemetrySettings(events=True),
        engine=engine,
    )
    run = run_simulation_batch if engine == "batch" else run_simulation
    result = run(scenario, golden.protocol, settings)
    assert result.events is not None
    return [event.to_json() for event in result.events]

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
    #: Post-warmup completions retained (2 batches of this many halves).
    completions: int = 80
    warmup: int = 10
    #: Why this particular cell is worth pinning.
    rationale: str = ""
    #: Execution engine the trace pins ("event" or "batch").  The batch
    #: engine is contractually bit-identical on its domain, so a batch
    #: golden equals its event twin — pinning both means a divergence
    #: names the engine that moved.
    engine: str = "event"
    #: Bus-level faults per unit simulated time.  Non-zero turns the run
    #: into a fault-domain golden: a deterministic
    #: :class:`~repro.faults.plan.FaultPlan` (seeded from
    #: :data:`GOLDEN_SEED`, bus-level kinds only) plus the default
    #: watchdog policy, so the trace pins anomaly emission, watchdog
    #: attempt counting and recovery scheduling — not just clean grants.
    fault_rate: float = 0.0
    #: Workload family behind the run.  ``closed`` is the original
    #: equal-load think-time population; ``mmpp-closed`` swaps the think
    #: times for closed-loop MMPP draws; ``poisson`` is an open-loop
    #: arrival scenario with one outstanding request per agent;
    #: ``bursty-priority`` is open-loop on-off MMPP with the two-class
    #: priority bit.  All four are inside the batch-lane domain, so each
    #: can have a batch twin.
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
    # Batch-engine twins: one per batch-capable protocol, same seed and
    # workload as the event goldens so any divergence is the engine's.
    "batch-rr": GoldenScenario(
        protocol="rr",
        agents=4,
        load=2.0,
        engine="batch",
        rationale="batch engine, RR implementation 1",
    ),
    "batch-rr-impl2": GoldenScenario(
        protocol="rr-impl2",
        agents=4,
        load=2.0,
        engine="batch",
        rationale="batch engine, RR implementation 2 (no event twin: pins it)",
    ),
    "batch-rr-impl3": GoldenScenario(
        protocol="rr-impl3",
        agents=4,
        load=2.0,
        engine="batch",
        rationale="batch engine, RR implementation 3 extra-round passes",
    ),
    "batch-fcfs": GoldenScenario(
        protocol="fcfs",
        agents=4,
        load=2.0,
        engine="batch",
        rationale="batch engine, FCFS strategy 1 loss counting",
    ),
    "batch-fcfs-aincr": GoldenScenario(
        protocol="fcfs-aincr",
        agents=4,
        load=2.0,
        engine="batch",
        rationale="batch engine, FCFS strategy 2 arrival ticks",
    ),
    "batch-fixed": GoldenScenario(
        protocol="fixed",
        agents=4,
        load=2.0,
        engine="batch",
        rationale="batch engine, fixed-priority baseline",
    ),
    # Fault-domain twins: the same seeded bus-level fault plan and
    # default watchdog on both engines.  The rate is tuned so the run
    # completes while exercising anomalies, deviated grants and
    # watchdog retries — the whole fault-recovery event vocabulary.
    "rr-faults": GoldenScenario(
        protocol="rr",
        agents=4,
        load=2.0,
        fault_rate=0.3,
        rationale="event engine under bus-level faults: anomaly/retry pinning",
    ),
    "batch-rr-faults": GoldenScenario(
        protocol="rr",
        agents=4,
        load=2.0,
        engine="batch",
        fault_rate=0.3,
        rationale="batch engine fault-timer class, byte-equal to rr-faults",
    ),
    # Arrival-layer goldens.  The closed-loop MMPP pair, the open-loop
    # Poisson pair (one outstanding request per agent) and the bursty
    # two-class priority pair stay inside the batch-lane domain
    # (stateful distributions ride the default sample_batch path, classed
    # agents draw one think time per request), so they pin the engines
    # against each other.
    "mmpp-closed": GoldenScenario(
        protocol="rr",
        agents=4,
        load=2.0,
        workload="mmpp-closed",
        rationale="closed-loop MMPP think times: pins modulated RNG draws",
    ),
    "batch-mmpp-closed": GoldenScenario(
        protocol="rr",
        agents=4,
        load=2.0,
        engine="batch",
        workload="mmpp-closed",
        rationale="batch engine on closed-loop MMPP, byte-equal to mmpp-closed",
    ),
    "openloop-poisson": GoldenScenario(
        protocol="fcfs",
        agents=4,
        load=0.8,
        workload="poisson",
        rationale="open-loop Poisson arrivals: pins the free-running arrival clock",
    ),
    "batch-openloop-poisson": GoldenScenario(
        protocol="fcfs",
        agents=4,
        load=0.8,
        engine="batch",
        workload="poisson",
        rationale="batch engine on open-loop r=1 Poisson, byte-equal to "
        "openloop-poisson",
    ),
    "openloop-bursty-priority": GoldenScenario(
        protocol="rr",
        agents=4,
        load=0.8,
        workload="bursty-priority",
        rationale="on-off bursty sources + §5 two-class overlay: pins MMPP "
        "phase flips and the priority bit in arbitration",
    ),
    "batch-openloop-bursty-priority": GoldenScenario(
        protocol="rr",
        agents=4,
        load=0.8,
        engine="batch",
        workload="bursty-priority",
        rationale="batch engine on bursty two-class sources, byte-equal to "
        "openloop-bursty-priority",
    ),
    # Synchronous-bus pair.  The period divides neither the tenure nor
    # the settle time, so kicks after a release and grants after an
    # idle-bus settle both wait for an edge.
    "rr-sync": GoldenScenario(
        protocol="rr",
        agents=4,
        load=2.0,
        clock_period=0.3,
        rationale="synchronous bus: pins edge-aligned arbitration starts and grants",
    ),
    "batch-rr-sync": GoldenScenario(
        protocol="rr",
        agents=4,
        load=2.0,
        engine="batch",
        clock_period=0.3,
        rationale="batch engine on the synchronous bus, byte-equal to rr-sync",
    ),
}


def golden_names() -> Tuple[str, ...]:
    """The golden scenario names, in declaration order."""
    return tuple(GOLDEN_SCENARIOS)


def golden_trace_lines(name: str) -> List[str]:
    """Run one golden scenario and return its canonical JSON lines.

    The returned list is exactly the content of
    ``tests/golden/<name>.jsonl`` (one line per event, no trailing
    newline included per line).
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
    from repro.experiments.runner import SimulationSettings, run_simulation
    from repro.faults.plan import BUS_LEVEL_FAULTS, FaultPlan
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
            kinds=tuple(sorted(BUS_LEVEL_FAULTS, key=lambda kind: kind.value)),
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
        engine=golden.engine,
    )
    result = run_simulation(scenario, golden.protocol, settings)
    assert result.events is not None
    return [event.to_json() for event in result.events]

"""Robustness grid: fault rate × protocol under deterministic injection.

This experiment turns §3.1's structural robustness argument into a
table.  For each protocol a panel sweeps the fault rate; every cell runs
the same saturated workload under a seeded
:class:`~repro.faults.plan.FaultPlan` (kinds limited to what the
protocol's :class:`~repro.protocols.registry.ProtocolSpec` declares
injectable, minus agent dropout so the offered load stays stationary)
with the bus watchdog recovering anomalous arbitrations.  Reported per
cell, against the protocol's own fault-free baseline:

- throughput, anomaly and recovery counts, mean recovery latency;
- service-order deviation (fraction of grant-sequence positions that
  differ from the baseline order);
- fairness deviation (shift of the extreme throughput ratio);
- terminal status: ``ok`` or ``FAIL`` (the watchdog gave up —
  permanent arbitration failure).

The §3.1 claim is the contrast between two rows of this grid: the
static-identity RR variant (``rr-faulty-register``) absorbs dropped
winner broadcasts with at most a bounded service-order wobble, while
rotating-priority RR (``rotating-rr``) reaches a permanent
no-unique-winner failure from a single dropped broadcast.  §3.2's
counter-reset rule shows up as ``fcfs-glitchable`` surviving counter
upsets with small order deviation and no anomalies at all.

Everything is deterministic: plans derive from the experiment seed, so
two invocations at the same scale and seed render byte-identical
tables, serial or parallel.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.bus.watchdog import WatchdogPolicy
from repro.errors import ConfigurationError
from repro.experiments.formatting import ExperimentTable
from repro.experiments.params import DEFAULT_SEED
from repro.experiments.scale import Scale, current_scale
from repro.experiments.spec import (
    CellSpec, PanelSpec, RowSpec, build_table, settings_for,
)
from repro.session import Session
from repro.session.planner import normalize_engine
from repro.faults.plan import FaultKind, FaultPlan
from repro.observability.events import TelemetrySettings
from repro.protocols.registry import get_spec
from repro.stats.collector import service_order_deviation
from repro.stats.summary import RunResult
from repro.workload.arrivals import bursty_equal_load, two_class_priority_load
from repro.workload.scenarios import equal_load, open_loop_equal_load

__all__ = [
    "ROBUSTNESS_PROTOCOLS",
    "DEFAULT_FAULT_RATES",
    "GRID_WORKLOADS",
    "grid_scenario",
    "fault_plan_for",
    "panel_spec",
    "run",
]

#: Default protocol column set: the §3.1 contrast pair plus the §3.2
#: counter-fault target.
ROBUSTNESS_PROTOCOLS: Tuple[str, ...] = (
    "rr-faulty-register",
    "rotating-rr",
    "fcfs-glitchable",
)

#: Faults per unit of simulated time (the transaction time is the unit).
DEFAULT_FAULT_RATES: Tuple[float, ...] = (0.002, 0.01, 0.05)

#: Agents and per-agent offered load of the grid's workload.  The load
#: saturates the bus, so every arbitration is contested — the regime
#: where replica divergence actually collides (§3.1) and where service
#: order is most sensitive to perturbation.
NUM_AGENTS = 10
LOAD = 2.0

#: Total arrival-rate load of the open-loop grid workloads.  Open-loop
#: sources need load < 1 for stability (the arrival clock never stops),
#: so the grid runs them hot but stable rather than saturated.
OPEN_LOAD = 0.9

#: Workload families the grid can sweep.  ``closed`` is the original
#: saturated §4.1 population and stays the default, so pre-existing grid
#: outputs (and their cache keys) are untouched; the rest exercise the
#: open-loop arrival layer: Poisson arrivals, on-off bursty (MMPP)
#: sources, and the §5 two-class priority overlay.
GRID_WORKLOADS: Tuple[str, ...] = ("closed", "poisson", "bursty", "two-class")


def grid_scenario(workload: str = "closed"):
    """The robustness grid's agent population for one workload family."""
    if workload == "closed":
        return equal_load(NUM_AGENTS, LOAD)
    if workload == "poisson":
        return open_loop_equal_load(NUM_AGENTS, OPEN_LOAD, max_outstanding=1)
    if workload == "bursty":
        return bursty_equal_load(NUM_AGENTS, OPEN_LOAD)
    if workload == "two-class":
        return two_class_priority_load(NUM_AGENTS, LOAD, urgent_fraction=0.2)
    raise ConfigurationError(
        f"unknown robustness workload {workload!r}; pick one of {GRID_WORKLOADS}"
    )


def _injectable_kinds(protocol: str) -> Tuple[FaultKind, ...]:
    """The grid's fault menu for one protocol: its declared capabilities
    minus agent dropout (which would change the offered load)."""
    kinds = get_spec(protocol).injectable_faults - {FaultKind.AGENT_DROPOUT}
    return tuple(sorted(kinds, key=lambda kind: kind.value))


def fault_plan_for(
    protocol: str,
    rate: float,
    scale: Scale,
    seed: int,
) -> FaultPlan:
    """The deterministic fault plan for one grid cell.

    Injection starts after the warmup completions (≈ ``warmup`` time
    units on the saturated bus, where throughput ≈ 1 completion per
    transaction time) and spans the measured portion of the run.  The
    plan depends only on its arguments, so the cell — and its cache
    key — is reproducible anywhere.
    """
    spec = get_spec(protocol)
    if not _injectable_kinds(protocol):
        raise ConfigurationError(
            f"protocol {protocol!r} declares no fault kinds the robustness "
            "grid can inject (agent dropout alone is excluded to keep the "
            "offered load stationary)"
        )
    return FaultPlan.generate(
        seed=seed,
        rate=rate,
        horizon=float(scale.total_completions),
        kinds=_injectable_kinds(protocol),
        num_agents=NUM_AGENTS,
        start=float(scale.warmup),
        line_span=spec.number_width(NUM_AGENTS) if spec.number_width else 4,
    )


def _fmt(value: Optional[float], precision: int = 3) -> str:
    return "—" if value is None else f"{value:.{precision}f}"


def panel_spec(
    protocol: str,
    baseline: RunResult,
    rates: Sequence[float] = DEFAULT_FAULT_RATES,
    scale: Optional[Scale] = None,
    seed: int = DEFAULT_SEED,
    telemetry: Optional[TelemetrySettings] = None,
    workload: str = "closed",
) -> PanelSpec:
    """One protocol's robustness panel: fault-rate rows vs its baseline.

    With ``telemetry`` set, every fault cell runs under it and each
    row's machine-readable record carries the cell's metrics snapshot
    (``record["metrics"]``) — the rendered table is unchanged either
    way.  ``workload`` picks the grid population (see
    :data:`GRID_WORKLOADS`); the baseline must have run the same one.
    """
    scale = scale or current_scale()
    scenario = grid_scenario(workload)
    baseline_order = list(baseline.collector.completion_order)
    baseline_ratio = baseline.extreme_throughput_ratio().mean

    rows = []
    for rate in rates:
        plan = fault_plan_for(protocol, rate, scale, seed)
        settings = settings_for(
            scale,
            seed,
            keep_order=True,
            fault_plan=plan,
            watchdog=WatchdogPolicy(),
            telemetry=telemetry,
        )
        rows.append(
            RowSpec(
                label=(rate, len(plan)),
                cells=(
                    CellSpec(
                        key="run",
                        scenario=scenario,
                        protocol=protocol,
                        settings=settings,
                        tag=f"robustness/{protocol}/r{rate:g}",
                    ),
                ),
            )
        )

    def build_row(label, results):
        rate, planned = label
        result = results["run"]
        anomalies = sum(result.anomaly_counts().values())
        recoveries = len(result.recovery_latencies())
        order_dev = service_order_deviation(
            baseline_order, list(result.collector.completion_order)
        )
        if result.failed:
            throughput = None
            fairness_delta = None
            status = "FAIL"
        else:
            throughput = result.system_throughput().mean
            fairness_delta = abs(
                result.extreme_throughput_ratio().mean - baseline_ratio
            )
            status = "ok"
        mean_recovery = result.mean_recovery_latency()
        cells = [
            f"{rate:g}",
            str(planned),
            _fmt(throughput),
            str(anomalies),
            str(recoveries),
            _fmt(mean_recovery, 2),
            _fmt(order_dev),
            _fmt(fairness_delta),
            status,
        ]
        record = {
            "protocol": protocol,
            "rate": rate,
            "planned_faults": planned,
            "throughput": throughput,
            "anomalies": anomalies,
            "recoveries": recoveries,
            "mean_recovery_latency": mean_recovery,
            "order_deviation": order_dev,
            "fairness_delta": fairness_delta,
            "failed": result.failed,
            "metrics": (
                result.metrics.as_dict() if result.metrics is not None else None
            ),
        }
        return cells, record

    spec = get_spec(protocol)
    kinds = ", ".join(kind.value for kind in _injectable_kinds(protocol))
    return PanelSpec(
        title=(
            f"Robustness: {protocol} ({spec.paper_section}) under "
            f"deterministic fault injection"
        ),
        headers=(
            "Rate", "Faults", "λ", "Anoms", "Recov",
            "Rec. time", "Order dev", "Fair Δ", "Status",
        ),
        rows=tuple(rows),
        build_row=build_row,
        notes=(
            f"kinds: {kinds}; {NUM_AGENTS} agents, load {LOAD}; "
            f"scale={scale.name}, seed={seed}; watchdog "
            f"{WatchdogPolicy().max_attempts} attempts"
            + ("" if workload == "closed" else f"; workload={workload}")
        ),
    )


def run(
    protocols: Sequence[str] = ROBUSTNESS_PROTOCOLS,
    rates: Sequence[float] = DEFAULT_FAULT_RATES,
    scale: Optional[Scale] = None,
    seed: int = DEFAULT_SEED,
    executor: Optional[Session] = None,
    telemetry: Optional[TelemetrySettings] = None,
    engine: str = "batch",
    workload: str = "closed",
) -> Tuple[ExperimentTable, ...]:
    """The full robustness grid: one panel per protocol.

    Each protocol's fault-free baseline runs first (through the same
    executor, so it caches and parallelises like any cell) and anchors
    that panel's order-deviation and fairness columns.  ``telemetry``
    is threaded into every fault cell (see :func:`panel_spec`).
    ``workload`` selects the grid population (see
    :data:`GRID_WORKLOADS`); the open-loop families (one outstanding
    request per agent) and the two-class priority family are all
    inside the batch lane domain of every protocol with a kernel.

    ``engine`` selects the execution engine for the fault-free
    baselines.  The grid's *fault* cells keep their own declaration
    (the batch engine): faulty-register RR and glitchable FCFS run on
    lanes, dropped broadcasts and counter upsets included, while
    rotating RR has no kernel and falls back to the event engine.
    """
    executor = executor or Session()
    scale = scale or current_scale()
    scenario = grid_scenario(workload)
    baseline_settings = settings_for(
        scale, seed, keep_order=True, engine=normalize_engine(engine, allow_none=False)
    )
    tables = []
    for protocol in protocols:
        baseline = executor.simulate(scenario, protocol, baseline_settings)
        tables.append(
            build_table(
                panel_spec(
                    protocol, baseline, rates, scale, seed, telemetry,
                    workload=workload,
                ),
                executor,
            )
        )
    return tuple(tables)


if __name__ == "__main__":  # pragma: no cover - manual harness
    for panel in run():
        print(panel.render())
        print()

"""Extension experiments: tables beyond the paper's §4.

Four tables the paper argues in prose but never tabulates, produced
with the same harness conventions as Tables 4.1–4.5 (available from the
CLI as ``repro-arb table E1|E2|E3|E4``):

- **Table E1** — resource cost of every arbiter: extra control lines,
  effective identity width on the arbitration lines, and whether the
  winner's identity must be observable (the §3 cost discussion);
- **Table E2** — robustness under winner-broadcast faults: survival
  rates of the static-identity RR protocol vs the rotating-priority
  prior art (the §3.1 robustness claim);
- **Table E3** — fairness under trace-driven (bursty, phase-correlated)
  workloads, the [EgGi87] corroboration angle;
- **Table E4** — a reproduction finding: §3.1's "record the winner of
  every arbitration" rule lets steady urgent traffic from high
  identities reset the RR scan pointer each urgent win, decaying the
  normal class toward static priority.  The table sweeps the urgent
  traffic share and compares the paper-faithful rule with the
  frozen-pointer amendment
  (``DistributedRoundRobin(record_priority_winners=False)``);
- **Table E5** — per-flow fairness under the open-loop arrival layer:
  Poisson, on-off bursty (MMPP) and two-class priority workloads per
  protocol, reporting the Jain index over (agent, class) flow shares
  and the two-class waiting-time percentiles (the §5
  priority-integration options exercised under traffic that can
  actually expose them).
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from repro.baselines.rotating import RotatingPriorityRR
from repro.errors import ArbitrationError
from repro.experiments.formatting import ExperimentTable, fmt_estimate
from repro.experiments.params import DEFAULT_SEED
from repro.experiments.scale import Scale, current_scale
from repro.experiments.spec import (
    CellSpec,
    PanelSpec,
    RowSpec,
    build_table,
    settings_for,
)
from repro.faults import FaultyWinnerRegisterRR
from repro.protocols.registry import get_spec, protocol_names
from repro.session import Session
from repro.workload.scenarios import AgentSpec, ScenarioSpec
from repro.workload.traces import TraceDistribution, synthesize_program_trace

__all__ = [
    "run_table_e1",
    "run_table_e2",
    "run_table_e3",
    "run_table_e4",
    "run_table_e5",
]


def run_table_e1(num_agents: int = 30) -> ExperimentTable:
    """Table E1: per-protocol bus-resource costs (no simulation needed)."""
    table = ExperimentTable(
        title=f"Table E1: arbiter resource costs ({num_agents} agents)",
        headers=["protocol", "identity bits", "extra lines", "winner broadcast"],
        notes=(
            "identity bits = width of the effective arbitration number; "
            "extra lines beyond the k arbitration lines + shared request line"
        ),
    )
    for name in protocol_names():
        spec = get_spec(name)
        if not spec.common_random_numbers:
            continue  # central oracles have no distributed line cost
        arbiter = spec.build(num_agents)
        table.add_row(
            [
                name,
                str(arbiter.identity_width),
                str(arbiter.extra_lines),
                "yes" if arbiter.requires_winner_identity else "no",
            ],
            {
                "protocol": name,
                "identity_width": arbiter.identity_width,
                "extra_lines": arbiter.extra_lines,
                "requires_winner_identity": arbiter.requires_winner_identity,
            },
        )
    return table


def _run_with_faults(arbiter, fault_rate: float, seed: int, rounds: int) -> int:
    rng = random.Random(seed)
    n = arbiter.num_agents
    for agent in range(1, n + 1):
        arbiter.request(agent, 0.0)
    completed = 0
    for __ in range(rounds):
        if rng.random() < fault_rate:
            arbiter.drop_winner_observations(rng.randint(1, n))
        try:
            winner = arbiter.start_arbitration(0.0).winner
        except ArbitrationError:
            break
        arbiter.grant(winner, 0.0)
        arbiter.request(winner, 0.0)
        completed += 1
    return completed


def run_table_e2(
    num_agents: int = 8,
    fault_rates: Sequence[float] = (0.002, 0.01, 0.05, 0.2),
    trials: int = 25,
    rounds: int = 400,
    seed: int = DEFAULT_SEED,
) -> ExperimentTable:
    """Table E2: survival under winner-broadcast faults (§3.1)."""
    table = ExperimentTable(
        title=f"Table E2: robustness to winner-broadcast faults ({num_agents} agents)",
        headers=[
            "fault rate",
            "static RR survival",
            "rotating RR survival",
            "rotating mean grants",
        ],
        notes=(
            f"{trials} trials x {rounds} grants each; a run survives if it "
            f"completes every grant; faults drop one agent's winner observation"
        ),
    )
    for rate in fault_rates:
        static_ok = 0
        rotating_ok = 0
        rotating_grants = 0
        for trial in range(trials):
            trial_seed = seed + trial
            if (
                _run_with_faults(
                    FaultyWinnerRegisterRR(num_agents), rate, trial_seed, rounds
                )
                == rounds
            ):
                static_ok += 1
            grants = _run_with_faults(
                RotatingPriorityRR(num_agents), rate, trial_seed, rounds
            )
            rotating_grants += grants
            if grants == rounds:
                rotating_ok += 1
        table.add_row(
            [
                f"{rate:.3f}",
                f"{static_ok / trials:.0%}",
                f"{rotating_ok / trials:.0%}",
                f"{rotating_grants / trials:.0f}/{rounds}",
            ],
            {
                "fault_rate": rate,
                "static_survival": static_ok / trials,
                "rotating_survival": rotating_ok / trials,
                "rotating_mean_grants": rotating_grants / trials,
            },
        )
    return table


def run_table_e3(
    num_agents: int = 12,
    scale: Optional[Scale] = None,
    seed: int = DEFAULT_SEED,
    executor: Optional[Session] = None,
) -> ExperimentTable:
    """Table E3: fairness under trace-driven workloads ([EgGi87] angle)."""
    scale = scale or current_scale()
    trace = synthesize_program_trace(
        4000, seed=seed, compute_mean=16.0, communicate_mean=1.0
    )
    agents = tuple(
        AgentSpec(
            agent_id=i, interrequest=TraceDistribution(trace, offset=i * 311)
        )
        for i in range(1, num_agents + 1)
    )
    scenario = ScenarioSpec(name=f"trace-n{num_agents}", agents=agents)
    settings = settings_for(scale, seed)
    protocols = ("rr", "fcfs", "fcfs-aincr", "aap1", "aap2")

    def build_row(protocol, results):
        result = results[protocol]
        return (
            [
                protocol,
                fmt_estimate(result.extreme_throughput_ratio()),
                f"{result.mean_waiting().mean:.2f}",
                f"{result.std_waiting().mean:.2f}",
            ],
            {
                "protocol": protocol,
                "ratio": result.extreme_throughput_ratio(),
                "mean_w": result.mean_waiting(),
                "std_w": result.std_waiting(),
            },
        )

    panel = PanelSpec(
        title=f"Table E3: fairness under program-trace workloads ({num_agents} agents)",
        headers=("protocol", "t_N/t_1", "mean W", "σ_W"),
        rows=tuple(
            RowSpec(
                label=protocol,
                cells=(
                    CellSpec(
                        key=protocol,
                        scenario=scenario,
                        protocol=protocol,
                        settings=settings,
                        tag=f"E3/n{num_agents}/{protocol}",
                    ),
                ),
            )
            for protocol in protocols
        ),
        build_row=build_row,
        notes=(
            f"scale={scale.name}, seed={seed}; synthetic compute/communicate "
            f"phase trace (CV > 1, autocorrelated), one phase offset per agent"
        ),
    )
    return build_table(panel, executor)


def run_table_e4(
    num_agents: int = 10,
    urgent_agents: Sequence[int] = (9, 10),
    load: float = 2.5,
    scale: Optional[Scale] = None,
    seed: int = DEFAULT_SEED,
    executor: Optional[Session] = None,
) -> ExperimentTable:
    """Table E4: the urgent-traffic pointer-reset finding (§3.1).

    ``urgent_agents`` issue only priority requests; the remaining agents
    issue only normal ones.  The table reports the throughput spread
    (max/min completions) across the *normal* agents for the
    paper-faithful RR rule vs the frozen-pointer amendment vs FCFS,
    which is immune by construction.
    """
    from repro.workload.distributions import Exponential

    scale = scale or current_scale()
    think = num_agents / load - 1.0
    agents = tuple(
        AgentSpec(
            agent_id=i,
            interrequest=Exponential(think),
            priority_fraction=1.0 if i in urgent_agents else 0.0,
        )
        for i in range(1, num_agents + 1)
    )
    scenario = ScenarioSpec(name=f"urgent-mix-n{num_agents}", agents=agents)
    # display label -> registered protocol name
    variants = {
        "rr (paper rule)": "rr",
        "rr (frozen pointer)": "rr-frozen",
        "fcfs": "fcfs",
        "fcfs-aincr": "fcfs-aincr",
    }
    settings = settings_for(scale, seed, keep_records=True)

    def build_row(name, results):
        result = next(iter(results.values()))
        counts = {}
        urgent_waits = []
        normal_waits = []
        for record in result.collector.records:
            if record.priority:
                urgent_waits.append(record.waiting_time)
            else:
                normal_waits.append(record.waiting_time)
                counts[record.agent_id] = counts.get(record.agent_id, 0) + 1
        spread = max(counts.values()) / max(1, min(counts.values()))
        return (
            [
                name,
                f"{spread:.2f}",
                f"{sum(urgent_waits) / len(urgent_waits):.2f}",
                f"{sum(normal_waits) / len(normal_waits):.2f}",
            ],
            {
                "arbiter": name,
                "normal_spread": spread,
                "urgent_w": sum(urgent_waits) / len(urgent_waits),
                "normal_w": sum(normal_waits) / len(normal_waits),
            },
        )

    panel = PanelSpec(
        title=(
            f"Table E4: normal-class fairness under urgent traffic "
            f"({num_agents} agents, {len(urgent_agents)} urgent)"
        ),
        headers=("arbiter", "normal max/min", "urgent W", "normal W"),
        rows=tuple(
            RowSpec(
                label=name,
                cells=(
                    CellSpec(
                        key=protocol,
                        scenario=scenario,
                        protocol=protocol,
                        settings=settings,
                        tag=f"E4/{protocol}",
                    ),
                ),
            )
            for name, protocol in variants.items()
        ),
        build_row=build_row,
        notes=(
            f"scale={scale.name}, seed={seed}; urgent agents "
            f"{tuple(urgent_agents)} issue only priority requests"
        ),
    )
    return build_table(panel, executor)


def run_table_e5(
    num_agents: int = 8,
    open_load: float = 0.85,
    closed_load: float = 2.0,
    urgent_fraction: float = 0.25,
    scale: Optional[Scale] = None,
    seed: int = DEFAULT_SEED,
    executor: Optional[Session] = None,
) -> ExperimentTable:
    """Table E5: per-flow fairness under the open-loop arrival layer.

    Every protocol row runs three workloads with common random numbers:
    open-loop Poisson arrivals, on-off bursty (MMPP) sources at the same
    average load, and the closed-loop §5 two-class priority overlay.
    Reported per row: the Jain index over (agent, class) flow shares for
    each workload, and the two-class run's p95 waiting time per class —
    the number a fixed-priority overlay actually moves.
    """
    from repro.analysis.fairness import fairness_report
    from repro.workload.arrivals import bursty_equal_load, two_class_priority_load
    from repro.workload.scenarios import open_loop_equal_load

    scale = scale or current_scale()
    workloads = {
        "poisson": open_loop_equal_load(num_agents, open_load, max_outstanding=1),
        "bursty": bursty_equal_load(num_agents, open_load),
        "two-class": two_class_priority_load(
            num_agents, closed_load, urgent_fraction=urgent_fraction
        ),
    }
    settings = settings_for(scale, seed, keep_records=True)
    protocols = ("rr", "rr-frozen", "fcfs", "fcfs-aincr")

    def build_row(protocol, results):
        reports = {key: fairness_report(results[key]) for key in workloads}
        two_class = reports["two-class"]["class_percentiles"]
        cells = [protocol]
        record = {"protocol": protocol}
        for key in workloads:
            jain = reports[key]["jain_flows"]
            cells.append(f"{jain:.4f}")
            record[f"jain_{key}"] = jain
        for label in ("urgent", "normal"):
            p95 = two_class.get(label, {}).get(95.0)
            cells.append("—" if p95 is None else f"{p95:.2f}")
            record[f"p95_{label}"] = p95
        return cells, record

    panel = PanelSpec(
        title=(
            f"Table E5: per-flow fairness under open-loop and two-class "
            f"workloads ({num_agents} agents)"
        ),
        headers=(
            "protocol", "jain poisson", "jain bursty", "jain 2-class",
            "p95 W urgent", "p95 W normal",
        ),
        rows=tuple(
            RowSpec(
                label=protocol,
                cells=tuple(
                    CellSpec(
                        key=key,
                        scenario=scenario,
                        protocol=protocol,
                        settings=settings,
                        tag=f"E5/{key}/{protocol}",
                    )
                    for key, scenario in workloads.items()
                ),
            )
            for protocol in protocols
        ),
        build_row=build_row,
        notes=(
            f"scale={scale.name}, seed={seed}; open-loop load {open_load:g}, "
            f"two-class load {closed_load:g} with urgent fraction "
            f"{urgent_fraction:g}; Jain index over (agent, class) flow shares"
        ),
    )
    return build_table(panel, executor)

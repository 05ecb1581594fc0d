"""Table 4.5: worst-case bus allocation for the RR protocol.

The §4.5 contrived scenario: one "slow" agent has a deterministic
inter-request time of n − 0.5 while the other n − 1 agents use n − 3.6,
saturating the bus.  With CV = 0 the slow agent phase-locks into "just
missing" its round-robin turn every cycle and waits a full extra round:
its throughput drops to ~0.50 of a regular agent's, far below its
offered-load ratio.  The slightest inter-request variability
(CV ≥ 0.25) breaks the phase lock and restores the ratio to ≈ the load
ratio.  The FCFS column (our addition, the paper reports RR only here)
shows FCFS does not suffer the pathology.
"""

from __future__ import annotations

from statistics import mean as _mean
from typing import Optional, Sequence, Tuple

from repro.experiments.formatting import ExperimentTable, fmt_estimate
from repro.experiments.params import DEFAULT_SEED, PAPER_CVS, PAPER_SIZES
from repro.experiments.scale import Scale, current_scale
from repro.experiments.spec import (
    ExperimentSpec, PanelSpec, build_table, build_tables, grid_rows, settings_for,
)
from repro.session import Session
from repro.stats.batch_means import BatchMeansEstimate, batch_means
from repro.stats.summary import RunResult
from repro.workload.scenarios import worst_case_rr

__all__ = ["run", "run_panel", "panel_spec", "spec", "slow_to_other_ratio"]


def slow_to_other_ratio(result: RunResult, slow_agent: int = 1) -> BatchMeansEstimate:
    """t[slow] / t[other]: slow agent vs the average regular agent.

    Averaging the regular agents removes their (RR-fair) statistical
    noise from the denominator.
    """
    others = [
        spec.agent_id for spec in result.scenario.agents if spec.agent_id != slow_agent
    ]
    ratios = []
    for batch in result.collector.completed_batches():
        other_mean = _mean(batch.agent_counts.get(agent, 0) for agent in others)
        slow = batch.agent_counts.get(slow_agent, 0)
        ratios.append(slow / other_mean if other_mean > 0 else float("nan"))
    return batch_means(ratios, result.confidence)


def panel_spec(num_agents: int, cvs: Sequence[float] = PAPER_CVS,
               scale: Optional[Scale] = None, seed: int = DEFAULT_SEED) -> PanelSpec:
    """One panel of Table 4.5 (one system size), as a declarative grid."""
    scale = scale or current_scale()

    def build_row(cv, results):
        rr, fcfs = results["rr"], results["fcfs"]
        scenario = rr.scenario
        load_ratio = scenario.agent(1).offered_load() / scenario.agent(2).offered_load()
        ratio_rr = slow_to_other_ratio(rr)
        ratio_fcfs = slow_to_other_ratio(fcfs)
        return (
            [
                f"{cv:.2f}",
                f"{load_ratio:.2f}",
                fmt_estimate(ratio_rr),
                fmt_estimate(ratio_fcfs),
            ],
            {
                "num_agents": num_agents,
                "cv": cv,
                "load_ratio": load_ratio,
                "ratio_rr": ratio_rr,
                "ratio_fcfs": ratio_fcfs,
            },
        )

    return PanelSpec(
        title=f"Table 4.5: worst-case bus allocation for RR ({num_agents} agents)",
        headers=("CV", "Load_s/Load_o", "t_s/t_o RR", "t_s/t_o FCFS"),
        rows=grid_rows(
            cvs,
            ("rr", "fcfs"),
            lambda cv: worst_case_rr(num_agents, cv=cv),
            settings_for(scale, seed),
            lambda cv, protocol: f"t4.5/n{num_agents}/cv{cv:g}/{protocol}",
        ),
        build_row=build_row,
        notes=(
            f"scale={scale.name}, seed={seed}; slow agent inter-request "
            f"{num_agents - 0.5:g}, others {num_agents - 3.6:g}"
        ),
    )


def spec(sizes: Sequence[int] = PAPER_SIZES, cvs: Optional[Sequence[float]] = None,
         scale: Optional[Scale] = None, seed: int = DEFAULT_SEED) -> ExperimentSpec:
    """All panels of Table 4.5.

    The paper sweeps all CVs for 10 agents and reports only CV = 0 for
    30 and 64; we sweep all CVs everywhere unless ``cvs`` is given.
    """
    return ExperimentSpec(
        name="table-4.5",
        panels=tuple(panel_spec(n, cvs or PAPER_CVS, scale, seed) for n in sizes),
    )


def run_panel(num_agents: int, cvs: Sequence[float] = PAPER_CVS,
              scale: Optional[Scale] = None, seed: int = DEFAULT_SEED,
              executor: Optional[Session] = None) -> ExperimentTable:
    """One panel of Table 4.5 (one system size)."""
    return build_table(panel_spec(num_agents, cvs, scale, seed), executor)


def run(sizes: Sequence[int] = PAPER_SIZES, cvs: Optional[Sequence[float]] = None,
        scale: Optional[Scale] = None, seed: int = DEFAULT_SEED,
        executor: Optional[Session] = None) -> Tuple[ExperimentTable, ...]:
    """All panels of Table 4.5."""
    return build_tables(spec(sizes, cvs, scale, seed), executor)


if __name__ == "__main__":  # pragma: no cover - manual harness
    for panel in run():
        print(panel.render())
        print()

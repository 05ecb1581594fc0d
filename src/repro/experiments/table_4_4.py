"""Table 4.4: bandwidth allocation among agents with unequal loads.

Agent 1 offers twice (panel a) or four times (panel b) the load of every
other agent; the table tracks the ratio of agent 1's throughput to agent
2's.  At low load both protocols deliver bandwidth in proportion to
demand (ratio ≈ the load ratio); as the bus saturates, waiting times
dominate and the ratios sink toward 1 — but FCFS, which schedules on
arrival times, stays measurably closer to the demand ratio than RR,
which rotates service evenly regardless of demand.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.experiments.formatting import ExperimentTable, fmt_estimate
from repro.experiments.params import DEFAULT_SEED
from repro.experiments.scale import Scale, current_scale
from repro.experiments.spec import (
    ExperimentSpec, PanelSpec, build_table, build_tables, grid_rows, settings_for,
)
from repro.session import Session
from repro.workload.scenarios import unequal_load

__all__ = ["run", "run_panel", "panel_spec", "spec", "BASE_LOADS"]

#: Per-regular-agent total-load bases (the paper's Table 4.1 loads minus
#: the 7.5 row, which Table 4.4 omits).
BASE_LOADS: Tuple[float, ...] = (0.25, 0.50, 1.00, 1.50, 2.00, 2.50, 5.00)


def panel_spec(factor: float, num_agents: int = 30,
               base_loads: Sequence[float] = BASE_LOADS,
               scale: Optional[Scale] = None, seed: int = DEFAULT_SEED) -> PanelSpec:
    """One panel of Table 4.4 (one rate factor), as a declarative grid."""
    scale = scale or current_scale()

    def build_row(base, results):
        rr, fcfs = results["rr"], results["fcfs"]
        total = rr.scenario.total_offered_load()
        throughput = rr.system_throughput()
        ratio_rr = rr.throughput_ratio(1, 2)
        ratio_fcfs = fcfs.throughput_ratio(1, 2)
        return (
            [
                f"{total:.2f}",
                f"{throughput.mean:.2f}",
                f"{factor:.2f}",
                fmt_estimate(ratio_rr),
                fmt_estimate(ratio_fcfs),
            ],
            {
                "num_agents": num_agents,
                "factor": factor,
                "total_load": total,
                "throughput": throughput,
                "ratio_rr": ratio_rr,
                "ratio_fcfs": ratio_fcfs,
            },
        )

    return PanelSpec(
        title=(
            f"Table 4.4: unequal request rates — agent 1 at {factor:g}x "
            f"({num_agents} agents)"
        ),
        headers=("Load", "λ", "Load1/Load2", "t1/t2 RR", "t1/t2 FCFS"),
        rows=grid_rows(
            base_loads,
            ("rr", "fcfs"),
            lambda base: unequal_load(num_agents, base / num_agents, factor),
            settings_for(scale, seed),
            lambda base, protocol: f"t4.4/f{factor:g}/L{base:g}/{protocol}",
        ),
        build_row=build_row,
        notes=f"scale={scale.name}, seed={seed}",
    )


def spec(factors: Sequence[float] = (2.0, 4.0), num_agents: int = 30,
         base_loads: Sequence[float] = BASE_LOADS,
         scale: Optional[Scale] = None, seed: int = DEFAULT_SEED) -> ExperimentSpec:
    """Both panels of Table 4.4."""
    return ExperimentSpec(
        name="table-4.4",
        panels=tuple(
            panel_spec(factor, num_agents, base_loads, scale, seed)
            for factor in factors
        ),
    )


def run_panel(factor: float, num_agents: int = 30,
              base_loads: Sequence[float] = BASE_LOADS,
              scale: Optional[Scale] = None, seed: int = DEFAULT_SEED,
              executor: Optional[Session] = None) -> ExperimentTable:
    """One panel of Table 4.4 (one rate factor)."""
    return build_table(panel_spec(factor, num_agents, base_loads, scale, seed), executor)


def run(factors: Sequence[float] = (2.0, 4.0), num_agents: int = 30,
        base_loads: Sequence[float] = BASE_LOADS,
        scale: Optional[Scale] = None, seed: int = DEFAULT_SEED,
        executor: Optional[Session] = None) -> Tuple[ExperimentTable, ...]:
    """Both panels of Table 4.4."""
    return build_tables(spec(factors, num_agents, base_loads, scale, seed), executor)


if __name__ == "__main__":  # pragma: no cover - manual harness
    for panel in run():
        print(panel.render())
        print()

"""Table 4.2: standard deviation of the waiting time, FCFS vs RR.

FCFS is the minimum-waiting-time-variance discipline [ShAh81]; both
protocols share the same *mean* waiting time (the conservation law for
work-conserving non-preemptive disciplines, the paper's footnote 4), but
σ_W for RR grows well past σ_W for FCFS under load — up to ~1.6x for 10
agents, ~2.9x for 30, ~4.5x for 64 in the paper.  W is the paper's
waiting time: request issue to transaction completion.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.experiments.formatting import ExperimentTable, fmt_estimate
from repro.experiments.params import DEFAULT_SEED, PAPER_LOADS, PAPER_SIZES
from repro.experiments.scale import Scale, current_scale
from repro.experiments.spec import (
    ExperimentSpec, PanelSpec, build_table, build_tables, grid_rows, settings_for,
)
from repro.session import Session
from repro.workload.scenarios import equal_load

__all__ = ["run", "run_panel", "panel_spec", "spec"]


def panel_spec(num_agents: int, loads: Sequence[float] = PAPER_LOADS,
               scale: Optional[Scale] = None, seed: int = DEFAULT_SEED) -> PanelSpec:
    """One panel of Table 4.2 (one system size), as a declarative grid."""
    scale = scale or current_scale()

    def build_row(load, results):
        rr, fcfs = results["rr"], results["fcfs"]
        throughput = rr.system_throughput()
        mean_w = rr.mean_waiting()
        mean_w_fcfs = fcfs.mean_waiting()
        std_rr = rr.std_waiting()
        std_fcfs = fcfs.std_waiting()
        ratio = std_rr.mean / std_fcfs.mean if std_fcfs.mean > 0 else float("nan")
        return (
            [
                f"{load:.2f}",
                f"{throughput.mean:.2f}",
                f"{(mean_w.mean + mean_w_fcfs.mean) / 2:.2f}",
                fmt_estimate(std_fcfs),
                fmt_estimate(std_rr),
                f"{ratio:.2f}",
            ],
            {
                "num_agents": num_agents,
                "load": load,
                "throughput": throughput,
                "mean_w_rr": mean_w,
                "mean_w_fcfs": mean_w_fcfs,
                "std_rr": std_rr,
                "std_fcfs": std_fcfs,
                "std_ratio": ratio,
            },
        )

    return PanelSpec(
        title=f"Table 4.2: waiting-time standard deviation ({num_agents} agents)",
        headers=("Load", "λ", "W", "σ_W FCFS", "σ_W RR", "σ_RR/σ_FCFS"),
        rows=grid_rows(
            loads,
            ("rr", "fcfs"),
            lambda load: equal_load(num_agents, load),
            settings_for(scale, seed),
            lambda load, protocol: f"t4.2/n{num_agents}/L{load:g}/{protocol}",
        ),
        build_row=build_row,
        notes=f"scale={scale.name}, seed={seed}; W = issue → transaction completion",
    )


def spec(sizes: Sequence[int] = PAPER_SIZES, loads: Sequence[float] = PAPER_LOADS,
         scale: Optional[Scale] = None, seed: int = DEFAULT_SEED) -> ExperimentSpec:
    """All panels of Table 4.2."""
    return ExperimentSpec(
        name="table-4.2",
        panels=tuple(panel_spec(n, loads, scale, seed) for n in sizes),
    )


def run_panel(num_agents: int, loads: Sequence[float] = PAPER_LOADS,
              scale: Optional[Scale] = None, seed: int = DEFAULT_SEED,
              executor: Optional[Session] = None) -> ExperimentTable:
    """One panel of Table 4.2 (one system size)."""
    return build_table(panel_spec(num_agents, loads, scale, seed), executor)


def run(sizes: Sequence[int] = PAPER_SIZES, loads: Sequence[float] = PAPER_LOADS,
        scale: Optional[Scale] = None, seed: int = DEFAULT_SEED,
        executor: Optional[Session] = None) -> Tuple[ExperimentTable, ...]:
    """All panels of Table 4.2."""
    return build_tables(spec(sizes, loads, scale, seed), executor)


if __name__ == "__main__":  # pragma: no cover - manual harness
    for panel in run():
        print(panel.render())
        print()

"""Table 4.1: allocation of bus bandwidth among agents with equal rates.

For each system size and offered load, the table reports the ratio of
the highest-identity agent's throughput to the lowest-identity agent's,
for the RR protocol (should be statistically 1.0 — it is perfectly fair)
and the simple (strategy 1) FCFS implementation (up to ~6–9% unfair near
saturation, where requests pile up between arbitrations and fall back to
static-priority order).  For the 30-agent system the paper adds the
first assured-access protocol, whose ratio approaches 2.0 — the
unfairness the new protocols eliminate.
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
               scale: Optional[Scale] = None, seed: int = DEFAULT_SEED,
               include_aap: bool = False) -> PanelSpec:
    """One panel of Table 4.1 (one system size), as a declarative grid."""
    scale = scale or current_scale()
    protocols = ["rr", "fcfs"] + (["aap1"] if include_aap else [])
    headers = ["Load", "λ", "t_N/t_1 RR", "t_N/t_1 FCFS"]
    if include_aap:
        headers.append("t_N/t_1 AAP")

    def build_row(load, results):
        throughput = results["rr"].system_throughput()
        ratios = {
            protocol: result.extreme_throughput_ratio()
            for protocol, result in results.items()
        }
        cells = [
            f"{load:.2f}",
            f"{throughput.mean:.2f}",
            fmt_estimate(ratios["rr"]),
            fmt_estimate(ratios["fcfs"]),
        ]
        record = {
            "num_agents": num_agents,
            "load": load,
            "throughput": throughput,
            "ratio_rr": ratios["rr"],
            "ratio_fcfs": ratios["fcfs"],
        }
        if include_aap:
            cells.append(fmt_estimate(ratios["aap1"]))
            record["ratio_aap1"] = ratios["aap1"]
        return cells, record

    return PanelSpec(
        title=f"Table 4.1: bandwidth allocation, equal request rates ({num_agents} agents)",
        headers=tuple(headers),
        rows=grid_rows(
            loads,
            protocols,
            lambda load: equal_load(num_agents, load),
            settings_for(scale, seed),
            lambda load, protocol: f"t4.1/n{num_agents}/L{load:g}/{protocol}",
        ),
        build_row=build_row,
        notes=f"scale={scale.name} ({scale.batches}x{scale.batch_size} samples), seed={seed}",
    )


def spec(sizes: Sequence[int] = PAPER_SIZES, loads: Sequence[float] = PAPER_LOADS,
         scale: Optional[Scale] = None, seed: int = DEFAULT_SEED) -> ExperimentSpec:
    """All panels of Table 4.1 (the AAP column appears for 30 agents)."""
    return ExperimentSpec(
        name="table-4.1",
        panels=tuple(
            panel_spec(n, loads, scale, seed, include_aap=(n == 30)) for n in sizes
        ),
    )


def run_panel(num_agents: int, loads: Sequence[float] = PAPER_LOADS,
              scale: Optional[Scale] = None, seed: int = DEFAULT_SEED,
              include_aap: bool = False,
              executor: Optional[Session] = None) -> ExperimentTable:
    """One panel of Table 4.1 (one system size)."""
    return build_table(panel_spec(num_agents, loads, scale, seed, include_aap), executor)


def run(sizes: Sequence[int] = PAPER_SIZES, loads: Sequence[float] = PAPER_LOADS,
        scale: Optional[Scale] = None, seed: int = DEFAULT_SEED,
        executor: Optional[Session] = None) -> Tuple[ExperimentTable, ...]:
    """All panels of Table 4.1."""
    return build_tables(spec(sizes, loads, scale, seed), executor)


if __name__ == "__main__":  # pragma: no cover - manual harness
    for panel in run():
        print(panel.render())
        print()

"""Table 4.3: execution overlapped with bus waiting times.

The §4.3 hypothetical: an agent performs a fixed amount v of "extra"
useful work while its request is outstanding, where v is the minimum
integer at which the RR waiting-time CDF falls below the FCFS CDF (just
past the shared mean).  Because FCFS concentrates waits near the mean,
it overlaps almost every wait completely, while RR's long tail leaves
more residual stall time — slightly higher productivity for FCFS, the
paper's one quantitative argument for FCFS over RR (and, as the paper
stresses, a contrived best case for it).
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
from repro.stats.cdf import min_integer_crossing
from repro.workload.scenarios import equal_load

__all__ = ["run", "run_panel", "panel_spec", "spec"]


def panel_spec(num_agents: int, loads: Sequence[float] = PAPER_LOADS,
               scale: Optional[Scale] = None, seed: int = DEFAULT_SEED) -> PanelSpec:
    """One panel of Table 4.3 (one system size), as a declarative grid."""
    scale = scale or current_scale()

    def build_row(load, results):
        rr, fcfs = results["rr"], results["fcfs"]
        rr_cdf = rr.waiting_cdf()
        fcfs_cdf = fcfs.waiting_cdf()
        overlap = min_integer_crossing(rr_cdf, fcfs_cdf)
        if overlap is None:
            # The CDFs never cross below the sample maximum (essentially
            # identical distributions); overlap everything.
            overlap = int(max(rr_cdf.max, fcfs_cdf.max)) + 1
        rr_metrics = rr.overlap_metrics(overlap)
        fcfs_metrics = fcfs.overlap_metrics(overlap)
        return (
            [
                f"{load:.2f}",
                f"{rr_metrics.total_waiting.mean:.2f}",
                fmt_estimate(rr_metrics.residual_waiting),
                fmt_estimate(fcfs_metrics.residual_waiting),
                f"{rr_metrics.productivity.mean:.3f}",
                f"{fcfs_metrics.productivity.mean:.3f}",
                f"{overlap:.1f}",
            ],
            {
                "num_agents": num_agents,
                "load": load,
                "overlap": overlap,
                "rr": rr_metrics,
                "fcfs": fcfs_metrics,
            },
        )

    return PanelSpec(
        title=f"Table 4.3: execution overlapped with bus waits ({num_agents} agents)",
        headers=(
            "Load",
            "W",
            "W-v resid RR",
            "W-v resid FCFS",
            "Prod RR",
            "Prod FCFS",
            "Overlap v",
        ),
        rows=grid_rows(
            loads,
            ("rr", "fcfs"),
            lambda load: equal_load(num_agents, load),
            settings_for(scale, seed, keep_samples=True),
            lambda load, protocol: f"t4.3/n{num_agents}/L{load:g}/{protocol}",
        ),
        build_row=build_row,
        notes=(
            f"scale={scale.name}, seed={seed}; v = min integer with "
            f"CDF_RR(v) < CDF_FCFS(v); resid = E[(W - v)+]"
        ),
    )


def spec(sizes: Sequence[int] = PAPER_SIZES, loads: Sequence[float] = PAPER_LOADS,
         scale: Optional[Scale] = None, seed: int = DEFAULT_SEED) -> ExperimentSpec:
    """All panels of Table 4.3."""
    return ExperimentSpec(
        name="table-4.3",
        panels=tuple(panel_spec(n, loads, scale, seed) for n in sizes),
    )


def run_panel(num_agents: int, loads: Sequence[float] = PAPER_LOADS,
              scale: Optional[Scale] = None, seed: int = DEFAULT_SEED,
              executor: Optional[Session] = None) -> ExperimentTable:
    """One panel of Table 4.3 (one system size)."""
    return build_table(panel_spec(num_agents, loads, scale, seed), executor)


def run(sizes: Sequence[int] = PAPER_SIZES, loads: Sequence[float] = PAPER_LOADS,
        scale: Optional[Scale] = None, seed: int = DEFAULT_SEED,
        executor: Optional[Session] = None) -> Tuple[ExperimentTable, ...]:
    """All panels of Table 4.3."""
    return build_tables(spec(sizes, loads, scale, seed), executor)


if __name__ == "__main__":  # pragma: no cover - manual harness
    for panel in run():
        print(panel.render())
        print()

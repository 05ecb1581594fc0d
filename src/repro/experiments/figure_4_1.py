"""Figure 4.1: CDF of the bus waiting time for RR and FCFS.

30 agents, total offered load 1.5 — the paper's "typical" saturated
operating point.  The FCFS CDF rises sharply near the (shared) mean
waiting time; the RR CDF spreads both ways, the visual signature of its
higher variance.  Rendered as an ASCII plot plus the underlying series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.experiments.formatting import ascii_plot
from repro.experiments.params import DEFAULT_SEED
from repro.experiments.scale import Scale, current_scale
from repro.experiments.spec import CellSpec, run_cells, settings_for
from repro.session import Session
from repro.stats.cdf import EmpiricalCDF
from repro.workload.scenarios import equal_load

__all__ = ["run", "FigureResult"]


@dataclass
class FigureResult:
    """The two CDFs plus plot-ready series."""

    num_agents: int
    load: float
    rr_cdf: EmpiricalCDF
    fcfs_cdf: EmpiricalCDF
    series: Dict[str, List[Tuple[float, float]]]
    notes: str

    def series_csv(self) -> str:
        """The plotted series as CSV (``x,fcfs,rr`` per row).

        For users who want to regenerate the figure in a real plotting
        tool: both CDFs are evaluated on the same x grid.
        """
        lines = ["x,fcfs,rr"]
        rr_by_x = dict(self.series["RR"])
        for x, fcfs_value in self.series["FCFS"]:
            lines.append(f"{x:.6g},{fcfs_value:.6g},{rr_by_x[x]:.6g}")
        return "\n".join(lines) + "\n"

    def render(self) -> str:
        """ASCII rendering of the figure with summary statistics."""
        plot = ascii_plot(self.series, x_label="waiting time W", y_label="CDF")
        summary = (
            f"mean W: RR {self.rr_cdf.mean:.2f}, FCFS {self.fcfs_cdf.mean:.2f}; "
            f"std W: RR {self.rr_cdf.std:.2f}, FCFS {self.fcfs_cdf.std:.2f}"
        )
        title = (
            f"Figure 4.1: CDF of the bus waiting time for RR and FCFS "
            f"({self.num_agents} agents; load = {self.load:g})"
        )
        return "\n".join([title, plot, summary, self.notes])

    def __str__(self) -> str:
        return self.render()


def run(
    num_agents: int = 30,
    load: float = 1.5,
    scale: Optional[Scale] = None,
    seed: int = DEFAULT_SEED,
    points: int = 60,
    executor: Optional[Session] = None,
) -> FigureResult:
    """Reproduce Figure 4.1 (defaults: the paper's 30 agents, load 1.5)."""
    scale = scale or current_scale()
    settings = settings_for(scale, seed, keep_samples=True)
    scenario = equal_load(num_agents, load)
    rr, fcfs = run_cells(
        [
            CellSpec("rr", scenario, "rr", settings, tag=f"fig4.1/n{num_agents}/rr"),
            CellSpec("fcfs", scenario, "fcfs", settings, tag=f"fig4.1/n{num_agents}/fcfs"),
        ],
        executor,
    )
    rr_cdf = rr.waiting_cdf()
    fcfs_cdf = fcfs.waiting_cdf()
    upper = math.ceil(max(rr_cdf.quantile(0.999), fcfs_cdf.quantile(0.999)))
    xs = [upper * i / (points - 1) for i in range(points)]
    series = {
        "FCFS": fcfs_cdf.series(xs),
        "RR": rr_cdf.series(xs),
    }
    return FigureResult(
        num_agents=num_agents,
        load=load,
        rr_cdf=rr_cdf,
        fcfs_cdf=fcfs_cdf,
        series=series,
        notes=f"scale={scale.name}, seed={seed}",
    )


if __name__ == "__main__":  # pragma: no cover - manual harness
    print(run().render())

"""Experiment harness: one module per table/figure of the paper's §4.

Every experiment module declares its grid as an
:class:`~repro.experiments.spec.ExperimentSpec` (``spec()`` /
``panel_spec()``) and exposes a ``run(...)`` function that compiles it
via :func:`~repro.experiments.spec.build_tables`, returning
:class:`~repro.experiments.formatting.ExperimentTable` objects whose
``render()`` prints the same rows the paper reports.  Fidelity is
controlled by :mod:`~repro.experiments.scale` (set ``REPRO_SCALE=paper``
for the full 10 x 8000-sample runs of §4.1).
"""

from repro.experiments.cache import ResultCache, cache_key
from repro.experiments.formatting import ExperimentTable, ascii_plot, fmt_estimate
from repro.experiments.runner import (
    PROTOCOLS,
    SimulationSettings,
    make_arbiter,
    run_simulation,
)
from repro.experiments.scale import Scale, current_scale
from repro.experiments.spec import (
    CellSpec,
    ExperimentSpec,
    PanelSpec,
    RowSpec,
    build_table,
    build_tables,
    grid_rows,
    run_cells,
    settings_for,
)
from repro.observability import TelemetrySettings, merge_metrics

__all__ = [
    "PROTOCOLS",
    "make_arbiter",
    "run_simulation",
    "SimulationSettings",
    "TelemetrySettings",
    "merge_metrics",
    "Scale",
    "current_scale",
    "ExperimentTable",
    "ascii_plot",
    "fmt_estimate",
    "ResultCache",
    "cache_key",
    "CellSpec",
    "RowSpec",
    "PanelSpec",
    "ExperimentSpec",
    "settings_for",
    "grid_rows",
    "run_cells",
    "build_table",
    "build_tables",
]

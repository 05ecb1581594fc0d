"""Declarative experiment grids: specs the table modules compile to.

The paper's evaluation is one grid of independent ``(scenario, protocol,
settings)`` cells.  Instead of each experiment module hand-rolling
headers, settings construction, sweep submission and row assembly, a
module declares its grid as data —

- :class:`CellSpec` — one simulation, validated against the protocol
  registry at construction time;
- :class:`RowSpec` — the cells one table row consumes, keyed for lookup;
- :class:`PanelSpec` — a titled table: header row, row specs, and a
  ``build_row`` callback holding the table's (irreducibly specific)
  row arithmetic;
- :class:`ExperimentSpec` — the panels of one table/figure.

— and :func:`build_table` / :func:`build_tables` do the rest: flatten
the grid, submit it as one batch of session-layer
:class:`~repro.session.request.RunRequest`\\ s (parallel- and
cache-friendly), and assemble the rendered
:class:`~repro.experiments.formatting.ExperimentTable`.  Cells are
submitted in row-major declaration order, so results are byte-identical
to the historical per-module loops at the same scale and seed.

A :class:`~repro.session.session.Session` backs every grid: a fresh
``Session()`` by default, or the caller's (its jobs, cache and engine
override then apply to the whole grid).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ConfigurationError
from repro.experiments.formatting import ExperimentTable
from repro.experiments.runner import SimulationSettings
from repro.experiments.scale import Scale
from repro.protocols.registry import get_spec
from repro.session.request import RunRequest
from repro.session.session import Session
from repro.stats.summary import RunResult
from repro.workload.scenarios import ScenarioSpec

__all__ = [
    "CellSpec",
    "RowSpec",
    "PanelSpec",
    "ExperimentSpec",
    "RowBuilder",
    "settings_for",
    "grid_rows",
    "run_cells",
    "build_table",
    "build_tables",
]

#: ``build_row(label, results_by_key) -> (formatted_cells, record)``.
RowBuilder = Callable[
    [object, Mapping[str, RunResult]],
    Tuple[Sequence[str], Dict[str, object]],
]


def settings_for(scale: Scale, seed: int, **overrides) -> SimulationSettings:
    """Run-length settings for one grid: scale knobs plus overrides."""
    return SimulationSettings(
        batches=scale.batches,
        batch_size=scale.batch_size,
        warmup=scale.warmup,
        seed=seed,
        **overrides,
    )


@dataclass(frozen=True)
class CellSpec:
    """One independent simulation of a declared grid.

    Construction validates the cell against the protocol registry: the
    protocol must be registered, and the scenario's outstanding-request
    needs must be within the protocol's declared capabilities — config
    time, not mid-run.
    """

    key: str
    scenario: ScenarioSpec
    protocol: str
    settings: SimulationSettings
    tag: Optional[str] = None

    def __post_init__(self) -> None:
        spec = get_spec(self.protocol)
        spec.check_outstanding(
            max(agent.max_outstanding for agent in self.scenario.agents)
        )

    def run_request(self) -> RunRequest:
        """The session-layer form of the cell."""
        return RunRequest(self.scenario, self.protocol, self.settings, tag=self.tag)


@dataclass(frozen=True)
class RowSpec:
    """The cells one table row consumes, plus the label passed to build_row."""

    label: object
    cells: Tuple[CellSpec, ...]

    def __post_init__(self) -> None:
        keys = [cell.key for cell in self.cells]
        if len(set(keys)) != len(keys):
            raise ConfigurationError(
                f"row {self.label!r} declares duplicate cell keys: {keys}"
            )


@dataclass(frozen=True)
class PanelSpec:
    """One titled table panel: headers, row grid, and row arithmetic."""

    title: str
    headers: Tuple[str, ...]
    rows: Tuple[RowSpec, ...]
    build_row: RowBuilder
    notes: str = ""

    def cells(self) -> Tuple[CellSpec, ...]:
        """All cells of the panel, flattened in row-major order."""
        return tuple(cell for row in self.rows for cell in row.cells)


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment (table or figure): a named sequence of panels."""

    name: str
    panels: Tuple[PanelSpec, ...]

    def cells(self) -> Tuple[CellSpec, ...]:
        """All cells of the experiment, flattened in panel order."""
        return tuple(cell for panel in self.panels for cell in panel.cells())


def grid_rows(
    labels: Iterable[object],
    protocols: Sequence[str],
    scenario_for: Callable[[object], ScenarioSpec],
    settings: SimulationSettings,
    tag: Callable[[object, str], str],
) -> Tuple[RowSpec, ...]:
    """The common grid shape: one row per label, one cell per protocol.

    The scenario is built once per label and shared by that row's cells
    (each cell still simulates against a private copy — the session
    guarantees that), and cells are keyed by protocol name.
    """
    rows = []
    for label in labels:
        scenario = scenario_for(label)
        rows.append(
            RowSpec(
                label=label,
                cells=tuple(
                    CellSpec(
                        key=protocol,
                        scenario=scenario,
                        protocol=protocol,
                        settings=settings,
                        tag=tag(label, protocol),
                    )
                    for protocol in protocols
                ),
            )
        )
    return tuple(rows)


def run_cells(
    cells: Sequence[CellSpec],
    executor: Optional[Session] = None,
) -> List[RunResult]:
    """Execute declared cells as one session batch; results in cell order."""
    executor = executor or Session()
    outcomes = executor.run_requests([cell.run_request() for cell in cells])
    return [outcome.result for outcome in outcomes]


def build_table(
    panel: PanelSpec,
    executor: Optional[Session] = None,
) -> ExperimentTable:
    """Compile one panel: run its grid, assemble the rendered table."""
    results = iter(run_cells(panel.cells(), executor))
    table = ExperimentTable(
        title=panel.title, headers=list(panel.headers), notes=panel.notes
    )
    for row in panel.rows:
        by_key = {cell.key: next(results) for cell in row.cells}
        formatted, record = panel.build_row(row.label, by_key)
        table.add_row(formatted, record)
    return table


def build_tables(
    experiment: ExperimentSpec,
    executor: Optional[Session] = None,
) -> Tuple[ExperimentTable, ...]:
    """Compile every panel of an experiment, sharing one executor."""
    executor = executor or Session()
    return tuple(build_table(panel, executor) for panel in experiment.panels)

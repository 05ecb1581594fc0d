"""Tests for the declarative experiment grid layer (repro.experiments.spec)."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import table_4_1, table_4_2, table_4_5
from repro.experiments.scale import SCALES
from repro.experiments.spec import (
    CellSpec,
    PanelSpec,
    RowSpec,
    build_table,
    build_tables,
    grid_rows,
    run_cells,
    settings_for,
)
from repro.workload.scenarios import equal_load, open_loop_equal_load

SMOKE = SCALES["smoke"]


class TestSettingsFor:
    def test_scale_knobs_copied(self):
        settings = settings_for(SMOKE, seed=42)
        assert settings.batches == SMOKE.batches
        assert settings.batch_size == SMOKE.batch_size
        assert settings.warmup == SMOKE.warmup
        assert settings.seed == 42

    def test_overrides_forwarded(self):
        settings = settings_for(SMOKE, seed=1, keep_samples=True)
        assert settings.keep_samples

    def test_each_call_returns_fresh_settings(self):
        assert settings_for(SMOKE, 1) is not settings_for(SMOKE, 1)


class TestCellSpecValidation:
    def test_unknown_protocol_rejected_at_construction(self):
        with pytest.raises(ConfigurationError, match="unknown protocol"):
            CellSpec("x", equal_load(4, 1.0), "lottery", settings_for(SMOKE, 1))

    def test_capacity_mismatch_rejected_at_construction(self):
        scenario = open_loop_equal_load(4, 0.5, max_outstanding=4)
        with pytest.raises(ConfigurationError, match="r=4"):
            CellSpec("x", scenario, "rr", settings_for(SMOKE, 1))

    def test_fcfs_cell_accepts_open_loop_scenario(self):
        scenario = open_loop_equal_load(4, 0.5, max_outstanding=4)
        cell = CellSpec("x", scenario, "fcfs", settings_for(SMOKE, 1))
        assert cell.run_request().protocol == "fcfs"


class TestRowSpec:
    def test_duplicate_cell_keys_rejected(self):
        settings = settings_for(SMOKE, 1)
        scenario = equal_load(4, 1.0)
        cells = (
            CellSpec("rr", scenario, "rr", settings),
            CellSpec("rr", scenario, "fcfs", settings),
        )
        with pytest.raises(ConfigurationError, match="duplicate cell keys"):
            RowSpec(label=1.0, cells=cells)


class TestGridRows:
    def test_one_row_per_label_one_cell_per_protocol(self):
        rows = grid_rows(
            (1.0, 2.0),
            ("rr", "fcfs"),
            lambda load: equal_load(4, load),
            settings_for(SMOKE, 1),
            lambda load, protocol: f"t/{load:g}/{protocol}",
        )
        assert [row.label for row in rows] == [1.0, 2.0]
        assert [cell.key for cell in rows[0].cells] == ["rr", "fcfs"]
        assert rows[1].cells[1].tag == "t/2/fcfs"

    def test_scenario_shared_within_a_row(self):
        rows = grid_rows(
            (1.5,),
            ("rr", "fcfs"),
            lambda load: equal_load(4, load),
            settings_for(SMOKE, 1),
            lambda load, protocol: protocol,
        )
        assert rows[0].cells[0].scenario is rows[0].cells[1].scenario


class TestBuildTable:
    def test_rows_assembled_in_declaration_order(self):
        def build_row(label, results):
            assert set(results) == {"rr", "fcfs"}
            return [f"{label:g}", results["rr"].protocol], {"load": label}

        panel = PanelSpec(
            title="unit",
            headers=("Load", "proto"),
            rows=grid_rows(
                (1.0, 2.0),
                ("rr", "fcfs"),
                lambda load: equal_load(4, load),
                settings_for(SMOKE, 1),
                lambda load, protocol: f"unit/{load:g}/{protocol}",
            ),
            build_row=build_row,
        )
        table = build_table(panel)
        assert [row["load"] for row in table.data] == [1.0, 2.0]
        assert table.rows[0] == ["1", "rr"]

    def test_results_keyed_by_cell_key_not_protocol(self):
        settings = settings_for(SMOKE, 1)
        scenario = equal_load(4, 1.0)
        panel = PanelSpec(
            title="unit",
            headers=("a", "b"),
            rows=(
                RowSpec(
                    label="x",
                    cells=(
                        CellSpec("first", scenario, "rr", settings),
                        CellSpec("second", scenario, "fcfs", settings),
                    ),
                ),
            ),
            build_row=lambda label, results: (
                [results["first"].protocol, results["second"].protocol],
                {},
            ),
        )
        assert build_table(panel).rows[0] == ["rr", "fcfs"]

    def test_run_cells_preserves_cell_order(self):
        settings = settings_for(SMOKE, 1)
        scenario = equal_load(4, 1.5)
        cells = [
            CellSpec("a", scenario, "fcfs", settings),
            CellSpec("b", scenario, "rr", settings),
        ]
        results = run_cells(cells)
        assert [r.protocol for r in results] == ["fcfs", "rr"]


class TestModuleSpecs:
    def test_table_modules_compile_to_specs(self):
        experiment = table_4_1.spec(sizes=(6,), loads=(1.5,), scale=SMOKE)
        assert experiment.name == "table-4.1"
        assert len(experiment.panels) == 1
        assert [cell.tag for cell in experiment.cells()] == [
            "t4.1/n6/L1.5/rr",
            "t4.1/n6/L1.5/fcfs",
        ]

    def test_spec_and_run_agree(self):
        experiment = table_4_2.spec(sizes=(6,), loads=(2.0,), scale=SMOKE)
        via_spec = build_tables(experiment)
        via_run = table_4_2.run(sizes=(6,), loads=(2.0,), scale=SMOKE)
        assert via_spec[0].render() == via_run[0].render()

    def test_table_4_5_spec_tags(self):
        experiment = table_4_5.spec(sizes=(10,), cvs=(0.0,), scale=SMOKE)
        assert [cell.tag for cell in experiment.cells()] == [
            "t4.5/n10/cv0/rr",
            "t4.5/n10/cv0/fcfs",
        ]

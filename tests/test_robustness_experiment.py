"""Tests for the robustness experiment grid and its CLI entry point.

The load-bearing acceptance property: the grid is deterministic — two
runs at the same scale and seed render byte-identical tables, whether
cells execute serially or across worker processes — and it reproduces
the §3.1 contrast (static-identity RR recovers, rotating-priority RR
fails permanently) at smoke scale.
"""

import pytest

from repro.engine.batch import batch_capable
from repro.errors import ConfigurationError
from repro.experiments import robustness
from repro.experiments.scale import SCALES
from repro.experiments.spec import settings_for
from repro.faults.plan import FaultKind
from repro.session import Session

SMOKE = SCALES["smoke"]
SEED = 19880530


def _render(tables):
    return "\n\n".join(table.render() for table in tables)


@pytest.fixture(scope="module")
def grid_tables():
    """One full smoke-scale grid, shared by the assertion tests."""
    return robustness.run(scale=SMOKE, seed=SEED, executor=Session(jobs=1))


class TestFaultPlanSelection:
    def test_plans_are_deterministic(self):
        first = robustness.fault_plan_for("rr-faulty-register", 0.05, SMOKE, SEED)
        second = robustness.fault_plan_for("rr-faulty-register", 0.05, SMOKE, SEED)
        assert first == second and len(first) > 0

    def test_kinds_respect_declared_capabilities(self):
        plan = robustness.fault_plan_for("fcfs-glitchable", 0.05, SMOKE, SEED)
        assert FaultKind.COUNTER_UPSET in plan.kinds()
        assert FaultKind.DROPPED_BROADCAST not in plan.kinds()
        rr_plan = robustness.fault_plan_for("rotating-rr", 0.05, SMOKE, SEED)
        assert FaultKind.COUNTER_UPSET not in rr_plan.kinds()

    def test_dropout_excluded_from_grid_plans(self):
        for protocol in robustness.ROBUSTNESS_PROTOCOLS:
            plan = robustness.fault_plan_for(protocol, 0.2, SMOKE, SEED)
            assert FaultKind.AGENT_DROPOUT not in plan.kinds()


class TestGridDeterminism:
    def test_repeat_run_renders_byte_identical(self, grid_tables):
        again = robustness.run(scale=SMOKE, seed=SEED, executor=Session(jobs=1))
        assert _render(again) == _render(grid_tables)

    def test_parallel_matches_serial_byte_for_byte(self, grid_tables):
        parallel = robustness.run(
            scale=SMOKE, seed=SEED, executor=Session(jobs=2)
        )
        assert _render(parallel) == _render(grid_tables)


class TestSection31Contrast:
    def _panel(self, grid_tables, protocol):
        for table in grid_tables:
            if protocol in table.title:
                return table
        raise AssertionError(f"no panel for {protocol}")

    def test_static_identity_rr_never_fails(self, grid_tables):
        panel = self._panel(grid_tables, "rr-faulty-register")
        assert all(not record["failed"] for record in panel.data)
        # At the highest rate faults landed and the watchdog recovered.
        top = panel.data[-1]
        assert top["planned_faults"] > 0
        assert top["anomalies"] == top["recoveries"]
        assert top["anomalies"] > 0
        assert top["mean_recovery_latency"] is not None

    def test_rotating_rr_fails_permanently_once_faults_land(self, grid_tables):
        panel = self._panel(grid_tables, "rotating-rr")
        landed = [r for r in panel.data if r["planned_faults"] > 0]
        assert landed, "no non-empty fault plans in the rotating panel"
        assert all(record["failed"] for record in landed)
        assert all(record["recoveries"] == 0 for record in landed)

    def test_fcfs_counter_upsets_stay_contained(self, grid_tables):
        panel = self._panel(grid_tables, "fcfs-glitchable")
        assert all(not record["failed"] for record in panel.data)

    def test_failed_rows_render_fail_marker(self, grid_tables):
        panel = self._panel(grid_tables, "rotating-rr")
        for row, record in zip(panel.rows, panel.data):
            assert (row[-1] == "FAIL") == record["failed"]


class TestGridWorkloads:
    """The grid's workload axis beyond the default closed loop."""

    @pytest.mark.parametrize("protocol", ("rr", "fcfs", "fcfs-aincr"))
    @pytest.mark.parametrize("workload", robustness.GRID_WORKLOADS)
    def test_every_workload_is_inside_the_lane_domain(self, workload, protocol):
        scenario = robustness.grid_scenario(workload)
        assert scenario.num_agents == robustness.NUM_AGENTS
        capable, reason = batch_capable(
            scenario, protocol, settings_for(SMOKE, SEED, keep_order=True)
        )
        assert capable, reason

    def test_unknown_workload_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="unknown robustness workload 'diurnal'"):
            robustness.grid_scenario("diurnal")

    def test_faults_subcommand_names_a_bursty_workload(self, capsys):
        from repro.cli import main

        status = main(
            [
                "--scale", "smoke",
                "faults",
                "--protocols", "rr-faulty-register",
                "--rates", "0.05",
                "--workload", "bursty",
            ]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "Robustness: rr-faulty-register" in out
        assert "workload=bursty" in out


class TestFaultsCli:
    def test_faults_subcommand_prints_grid(self, capsys):
        from repro.cli import main

        status = main(
            [
                "--scale", "smoke",
                "faults",
                "--protocols", "rotating-rr",
                "--rates", "0.05",
            ]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "Robustness: rotating-rr" in out
        assert "FAIL" in out

    def test_unsupported_fault_kind_rejected_cleanly(self, capsys):
        # central-rr declares only agent-dropout: the grid's bus-level
        # plans must be rejected at configuration time, as a CLI error.
        from repro.cli import main

        status = main(
            ["--scale", "smoke", "faults", "--protocols", "central-rr"]
        )
        assert status == 1
        assert "central-rr" in capsys.readouterr().err

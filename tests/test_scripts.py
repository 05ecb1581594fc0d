"""Tests for the repository's utility scripts."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestGenerateApiDocs:
    def test_writes_reference_for_every_package(self, tmp_path, monkeypatch):
        module = _load("generate_api_docs")
        monkeypatch.setattr(module, "OUT", tmp_path / "api.md")
        module.main()
        text = (tmp_path / "api.md").read_text()
        for package in (
            "repro.core",
            "repro.signals",
            "repro.baselines",
            "repro.bus",
            "repro.stats",
            "repro.analysis",
            "repro.workload",
            "repro.experiments",
        ):
            assert f"## `{package}`" in text
        assert "DistributedRoundRobin" in text
        assert "min_integer_crossing" in text

    def test_committed_api_doc_is_current_enough(self):
        # The committed docs/api.md must at least know every top-level
        # subpackage (regen with `make apidocs` after API changes).
        committed = (SCRIPTS.parent / "docs" / "api.md").read_text()
        for name in ("HandshakeBus", "AsyncContention", "TicketFCFS"):
            assert name in committed, f"docs/api.md is stale: missing {name}"


class TestGenerateExperiments:
    def test_module_loads_and_references_resolve(self):
        module = _load("generate_experiments")
        # The paper-reference aliases must be the packaged tables.
        from repro.experiments import reference

        assert module.PAPER_4_2 is reference.TABLE_4_2
        assert module.LOADS == reference.LOADS
        assert set(module.PAPER_4_5) == {10, 30, 64}

    def test_fmt_helper(self):
        module = _load("generate_experiments")
        assert module._fmt(None) == "—"
        assert module._fmt(1.2345) == "1.23"

        class Est:
            mean = 2.5

        assert module._fmt(Est()) == "2.50"


class TestCondenseSliceRatios:
    def test_each_slice_pair_yields_its_ratio_of_minima(self):
        module = _load("run_benchmarks")

        def bench(name, minimum):
            stats = {"median": 2 * minimum, "mean": 2 * minimum, "stddev": 0.0}
            return {"name": name, "stats": dict(stats, min=minimum, rounds=5)}

        raw = {
            "benchmarks": [
                bench(module.SYNC_EVENT, 0.08),
                bench(module.SYNC_BATCH, 0.02),
                bench(module.PRIORITY_EVENT, 0.15),
                bench(module.PRIORITY_BATCH, 0.03),
                bench(module.FAULT_EVENT, 0.09),
                bench(module.FAULT_BATCH, 0.015),
            ]
        }
        summary = module.condense(raw)
        assert summary["sync_grid_speedup"] == 4.0
        assert summary["priority_grid_speedup"] == 5.0
        assert summary["fault_grid_speedup"] == 6.0
        raw["benchmarks"] = raw["benchmarks"][:3]
        assert "priority_grid_speedup" not in module.condense(raw)
        assert "fault_grid_speedup" not in module.condense(raw)


class TestCheckBenchGates:
    """The bench guard's gate table, on synthetic summaries and baselines.

    One floor row (the grid speedup) and one ceiling row (the session
    overhead) cover both directions of the comparison; the synchronous
    and priority speedup rows get their own pass, recorded-miss and
    missing-key cases.
    """

    @pytest.fixture(scope="class")
    def module(self):
        return _load("check_bench")

    @staticmethod
    def _gate(module, key):
        return next(gate for gate in module.GATES if gate.key == key)

    def _check(self, module, capsys, key, recorded, fresh):
        gate = self._gate(module, key)
        baseline = {} if recorded is None else {key: recorded}
        summary = {} if fresh is None else {key: fresh}
        status = module.check_gate(gate, summary, baseline, gate.default, 0.5)
        return status, capsys.readouterr().out.splitlines()

    def test_table_covers_every_recorded_ratio(self, module):
        assert [gate.key for gate in module.GATES] == [
            "grid_speedup",
            "session_overhead",
            "service_overhead",
            "openloop_overhead",
            "sync_grid_speedup",
            "priority_grid_speedup",
            "fault_grid_speedup",
        ]
        assert self._gate(module, "grid_speedup").bound == module.FLOOR
        assert {gate.bound for gate in module.GATES[1:4]} == {module.CEILING}
        assert self._gate(module, "sync_grid_speedup").bound == module.FLOOR
        assert self._gate(module, "priority_grid_speedup").bound == module.FLOOR
        assert self._gate(module, "fault_grid_speedup").bound == module.FLOOR
        # Fixed bars: the slice speedup rows add no CLI flag.
        assert [gate.key for gate in module.GATES if gate.flag is None] == [
            "sync_grid_speedup",
            "priority_grid_speedup",
            "fault_grid_speedup",
        ]

    def test_floor_pass(self, module, capsys):
        status, lines = self._check(module, capsys, "grid_speedup", 12.0, 9.0)
        assert status == 0
        assert lines == [
            "  grid speedup: baseline records 12.00x (gate >= 10.0x)",
            "  grid speedup (fresh): 9.00x (floor 5.0x at 50% tolerance)",
        ]

    def test_floor_recorded_miss(self, module, capsys):
        status, lines = self._check(module, capsys, "grid_speedup", 9.0, 9.0)
        assert status == 1
        assert lines[0] == (
            "  grid speedup: baseline records 9.00x (gate >= 10.0x)  <-- REGRESSION"
        )
        assert "REGRESSION" not in lines[1]

    def test_floor_fresh_miss(self, module, capsys):
        status, lines = self._check(module, capsys, "grid_speedup", 12.0, 4.0)
        assert status == 1
        assert lines[1] == (
            "  grid speedup (fresh): 4.00x (floor 5.0x at 50% tolerance)  <-- REGRESSION"
        )

    def test_floor_missing_keys(self, module, capsys):
        status, lines = self._check(module, capsys, "grid_speedup", None, None)
        assert status == 1
        assert lines == [
            "  grid speedup: baseline records none  <-- REGRESSION",
            "  grid speedup (fresh): missing grid benchmarks  <-- REGRESSION",
        ]

    def test_sync_floor_pass(self, module, capsys):
        status, lines = self._check(module, capsys, "sync_grid_speedup", 4.0, 2.0)
        assert status == 0
        assert lines == [
            "  synchronous grid speedup: baseline records 4.00x (gate >= 2.5x)",
            "  synchronous grid speedup (fresh): 2.00x (floor 1.2x at 50% tolerance)",
        ]

    def test_sync_floor_recorded_miss(self, module, capsys):
        status, lines = self._check(module, capsys, "sync_grid_speedup", 2.4, 4.0)
        assert status == 1
        assert lines[0] == (
            "  synchronous grid speedup: baseline records 2.40x (gate >= 2.5x)"
            "  <-- REGRESSION"
        )
        assert "REGRESSION" not in lines[1]

    def test_sync_floor_missing_keys(self, module, capsys):
        status, lines = self._check(module, capsys, "sync_grid_speedup", None, None)
        assert status == 1
        assert lines == [
            "  synchronous grid speedup: baseline records none  <-- REGRESSION",
            "  synchronous grid speedup (fresh): missing synchronous grid benchmarks"
            "  <-- REGRESSION",
        ]

    def test_priority_floor_pass(self, module, capsys):
        status, lines = self._check(module, capsys, "priority_grid_speedup", 5.0, 1.5)
        assert status == 0
        assert lines == [
            "  priority grid speedup: baseline records 5.00x (gate >= 2.5x)",
            "  priority grid speedup (fresh): 1.50x (floor 1.2x at 50% tolerance)",
        ]

    def test_priority_floor_recorded_miss(self, module, capsys):
        status, lines = self._check(module, capsys, "priority_grid_speedup", 2.0, 5.0)
        assert status == 1
        assert lines[0] == (
            "  priority grid speedup: baseline records 2.00x (gate >= 2.5x)"
            "  <-- REGRESSION"
        )
        assert "REGRESSION" not in lines[1]

    def test_priority_floor_fresh_miss(self, module, capsys):
        status, lines = self._check(module, capsys, "priority_grid_speedup", 5.0, 1.0)
        assert status == 1
        assert lines[1] == (
            "  priority grid speedup (fresh): 1.00x (floor 1.2x at 50% tolerance)"
            "  <-- REGRESSION"
        )

    def test_priority_floor_missing_keys(self, module, capsys):
        status, lines = self._check(module, capsys, "priority_grid_speedup", None, None)
        assert status == 1
        assert lines == [
            "  priority grid speedup: baseline records none  <-- REGRESSION",
            "  priority grid speedup (fresh): missing priority grid benchmarks"
            "  <-- REGRESSION",
        ]

    def test_fault_floor_pass(self, module, capsys):
        status, lines = self._check(module, capsys, "fault_grid_speedup", 6.0, 1.5)
        assert status == 0
        assert lines == [
            "  fault grid speedup: baseline records 6.00x (gate >= 2.5x)",
            "  fault grid speedup (fresh): 1.50x (floor 1.2x at 50% tolerance)",
        ]

    def test_fault_floor_recorded_miss_and_missing_fresh(self, module, capsys):
        status, lines = self._check(module, capsys, "fault_grid_speedup", 2.4, None)
        assert status == 1
        assert lines == [
            "  fault grid speedup: baseline records 2.40x (gate >= 2.5x)  <-- REGRESSION",
            "  fault grid speedup (fresh): missing fault grid benchmarks  <-- REGRESSION",
        ]

    def test_ceiling_pass(self, module, capsys):
        status, lines = self._check(module, capsys, "session_overhead", 0.01, 0.025)
        assert status == 0
        assert lines == [
            "  session overhead: baseline records +1.00% (gate < 2%)",
            "  session overhead (fresh): +2.50% (ceiling 3% at 50% tolerance)",
        ]

    def test_ceiling_recorded_miss(self, module, capsys):
        status, lines = self._check(module, capsys, "session_overhead", 0.02, 0.01)
        assert status == 1
        assert lines[0] == (
            "  session overhead: baseline records +2.00% (gate < 2%)  <-- REGRESSION"
        )
        assert "REGRESSION" not in lines[1]

    def test_ceiling_fresh_miss(self, module, capsys):
        status, lines = self._check(module, capsys, "session_overhead", 0.01, 0.035)
        assert status == 1
        assert lines[1] == (
            "  session overhead (fresh): +3.50% (ceiling 3% at 50% tolerance)"
            "  <-- REGRESSION"
        )

    def test_ceiling_missing_keys(self, module, capsys):
        status, lines = self._check(module, capsys, "session_overhead", None, None)
        assert status == 1
        assert lines == [
            "  session overhead: baseline records none  <-- REGRESSION",
            "  session overhead (fresh): missing session benchmark  <-- REGRESSION",
        ]

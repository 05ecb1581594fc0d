"""Tests for the repository's utility scripts."""

import importlib.util
import shutil
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

    def test_check_passes_on_a_current_page_and_writes_nothing(self, tmp_path, monkeypatch, capsys):
        module = _load("generate_api_docs")
        page = tmp_path / "api.md"
        page.write_text(module.render(), encoding="utf-8")
        before = page.stat().st_mtime_ns
        monkeypatch.setattr(module, "OUT", page)
        assert module.main(["--check"]) == 0
        assert page.stat().st_mtime_ns == before
        assert "current" in capsys.readouterr().out

    def test_check_prints_the_diff_and_fails_on_a_stale_page(self, tmp_path, monkeypatch, capsys):
        module = _load("generate_api_docs")
        page = tmp_path / "api.md"
        stale = module.render().replace("#### `t_quantile", "#### `old_quantile", 1)
        page.write_text(stale, encoding="utf-8")
        monkeypatch.setattr(module, "OUT", page)
        assert module.main(["--check"]) == 1
        out = capsys.readouterr().out
        assert "-#### `old_quantile" in out and "+#### `t_quantile" in out
        assert "STALE" in out
        assert page.read_text(encoding="utf-8") == stale

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
                bench("test_sync_pass_event_engine", 0.08),
                bench("test_sync_pass_batch_lanes", 0.02),
                bench("test_priority_pass_event_engine", 0.15),
                bench("test_priority_pass_batch_lanes", 0.03),
                bench("test_fault_pass_event_engine", 0.09),
                bench("test_fault_pass_batch_lanes", 0.015),
                bench("test_hit_pass_cold", 0.03),
                bench("test_hit_pass_hot", 0.0008),
            ]
        }
        summary = module.condense(raw)
        assert summary["sync_grid_speedup"] == 4.0
        assert summary["priority_grid_speedup"] == 5.0
        assert summary["fault_grid_speedup"] == 6.0
        assert summary["hot_hit_speedup"] == 37.5
        raw["benchmarks"] = raw["benchmarks"][:3]
        assert "priority_grid_speedup" not in module.condense(raw)
        assert "fault_grid_speedup" not in module.condense(raw)

    def test_median_speedup_and_min_overhead_rows(self):
        module = _load("run_benchmarks")

        def bench(name, median, minimum):
            stats = {"median": median, "mean": median, "stddev": 0.0, "min": minimum}
            return {"name": name, "stats": dict(stats, rounds=5)}

        raw = {
            "benchmarks": [
                bench("test_grid_pass_event_engine", 1.0, 0.5),
                bench("test_grid_pass_batch_lanes", 0.08, 0.01),
                bench("test_grid_pass_session_routed", 9.0, 0.10123),
                bench("test_grid_pass_lanes_paired", 1.0, 0.1),
                bench("test_grid_pass_cached_service", 1.0, 0.003),
                bench("test_grid_pass_cached_session", 1.0, 0.002),
                bench("test_sweep_pass_open_loop", 1.0, 0.11),
                bench("test_sweep_pass_closed_loop_paired", 1.0, 0.1),
            ]
        }
        summary = module.condense(raw)
        assert summary["grid_speedup"] == 12.5  # medians, not 50x of minima
        assert summary["session_overhead"] == 0.0123
        assert summary["service_overhead"] == 0.5
        assert summary["openloop_overhead"] == 0.1


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
        status = module.check_gate(gate, summary, baseline, 0.5)
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
            "hot_hit_speedup",
            "shared_tape_speedup",
            "stateful_tape_speedup",
        ]
        assert self._gate(module, "grid_speedup").bound == module.FLOOR
        assert {gate.bound for gate in module.GATES[1:4]} == {module.CEILING}
        assert self._gate(module, "sync_grid_speedup").bound == module.FLOOR
        assert self._gate(module, "priority_grid_speedup").bound == module.FLOOR
        assert self._gate(module, "fault_grid_speedup").bound == module.FLOOR
        assert self._gate(module, "hot_hit_speedup").bound == module.FLOOR
        assert self._gate(module, "shared_tape_speedup").bound == module.FLOOR
        assert self._gate(module, "stateful_tape_speedup").bound == module.FLOOR
        assert {gate.key: gate.bar for gate in module.GATES} == {
            "grid_speedup": 10.0,
            "session_overhead": 0.02,
            "service_overhead": 0.5,
            "openloop_overhead": 0.5,
            "sync_grid_speedup": 2.5,
            "priority_grid_speedup": 2.5,
            "fault_grid_speedup": 2.5,
            "hot_hit_speedup": 10.0,
            "shared_tape_speedup": 1.1,
            "stateful_tape_speedup": 1.15,
        }
        # The grid speedup is a ratio of medians; every other row
        # divides minima.
        assert [gate.key for gate in module.GATES if gate.statistic == "median_us"] == [
            "grid_speedup"
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

    def test_hot_hit_floor_pass_and_recorded_miss(self, module, capsys):
        status, lines = self._check(module, capsys, "hot_hit_speedup", 38.9, 6.0)
        assert status == 0
        assert lines == [
            "  hot hit speedup: baseline records 38.90x (gate >= 10.0x)",
            "  hot hit speedup (fresh): 6.00x (floor 5.0x at 50% tolerance)",
        ]
        status, lines = self._check(module, capsys, "hot_hit_speedup", 9.0, None)
        assert status == 1
        assert lines == [
            "  hot hit speedup: baseline records 9.00x (gate >= 10.0x)  <-- REGRESSION",
            "  hot hit speedup (fresh): missing service hit benchmarks  <-- REGRESSION",
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


class TestRegenGolden:
    """``regen_golden.py --check`` replays every golden on both engines."""

    @pytest.fixture
    def module(self, tmp_path, monkeypatch):
        module = _load("regen_golden")
        golden = tmp_path / "golden"
        shutil.copytree(module.GOLDEN_DIR, golden)
        monkeypatch.setattr(module, "GOLDEN_DIR", golden)
        return module

    def test_check_passes_on_the_committed_tree(self, capsys):
        from repro.observability.golden import golden_names

        assert _load("regen_golden").main(["--check"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(golden_names())
        assert all("unchanged" in line and "event, batch" in line for line in lines)

    def test_check_prints_the_diff_and_fails_on_an_altered_line(self, module, capsys):
        path = module.GOLDEN_DIR / "fcfs.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines()
        original = lines[5]
        lines[5] = original.replace('"index":5,', '"index":50,')
        assert lines[5] != original
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        before = path.read_bytes()
        assert module.main(["--check"]) == 1
        captured = capsys.readouterr()
        assert "fcfs: DRIFTED on every engine" in captured.out
        assert f"-{lines[5]}" in captured.out and f"+{original}" in captured.out
        assert "1 golden trace(s) drifted" in captured.err
        assert path.read_bytes() == before

    @pytest.mark.parametrize("check", (True, False))
    def test_a_lane_only_drift_names_the_lane_engine_and_writes_nothing(
        self, module, monkeypatch, capsys, check
    ):
        import repro.engine.batch as batch

        real = batch.run_simulation_batch

        def drifting(*args):
            result = real(*args)
            result.events.pop()
            return result

        monkeypatch.setattr(batch, "run_simulation_batch", drifting)
        path = module.GOLDEN_DIR / "rr.jsonl"
        before = path.read_bytes()
        assert module.main(["--check", "rr"] if check else ["rr"]) == 1
        out = capsys.readouterr().out
        assert "rr: batch engine DRIFTED from the stored trace; not written" in out
        assert "event engine DRIFTED" not in out
        assert f"-{before.decode().splitlines()[-1]}" in out
        assert path.read_bytes() == before

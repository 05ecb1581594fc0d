"""Tests for the repository's utility scripts."""

import contextlib
import importlib
import importlib.util
import json
import shutil
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name, directory=SCRIPTS):
    spec = importlib.util.spec_from_file_location(name, directory / f"{name}.py")
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


#: The recorded ratios, in table order.
GATE_KEYS = (
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
)


@pytest.fixture(scope="module")
def gates():
    """``benchmarks/gates.py``, as the scripts import it."""
    _load("run_benchmarks")  # puts src/ and benchmarks/ on sys.path
    return importlib.import_module("gates")


def _fake(durations, calls=None, name=None):
    """A pass that returns the next of ``durations`` and logs its call."""
    pending = iter(durations)

    def run():
        if calls is not None:
            calls.append(name)
        return next(pending)

    return run


class TestGateHelper:
    def test_min_of_k_warms_alternates_and_divides_minima(self, gates):
        calls = []
        # The first call of each pass is the untimed warm-up: its
        # duration (the fastest of both series here) must not count.
        numerator = _fake([0.1, 0.9, 0.6, 0.8], calls, "numerator")
        denominator = _fake([0.1, 0.4, 0.3, 0.5], calls, "denominator")
        assert gates.min_of_k(numerator, denominator, rounds=3) == 2.0
        assert calls == ["numerator", "denominator"] * 4

    @pytest.mark.parametrize("bound, expected", [("floor", 1.5), ("ceiling", 0.5)])
    def test_measure_subtracts_one_for_a_ceiling(self, gates, bound, expected):
        closed = []

        @contextlib.contextmanager
        def passes():
            yield _fake([1.0, 0.3, 0.45]), _fake([1.0, 0.2, 0.3])
            closed.append(True)

        gate = gates.Gate("k", "k", "why", passes, 2, bound, 1.0, 2)
        assert gates.measure(gate) == pytest.approx(expected)
        assert closed == [True]


class TestCondenseSliceRatios:
    def test_each_slice_pair_yields_its_ratio_of_minima(self, gates, monkeypatch):
        """The recorded summary: condensed benchmark entries, plus each
        row's min-over-min, rounded to its digits, minus 1 for a ceiling."""
        run_benchmarks = _load("run_benchmarks")
        stats = {"median": 2e-3, "mean": 2.5e-3, "stddev": 1e-4, "min": 1e-3, "rounds": 5}
        monkeypatch.setattr(
            run_benchmarks,
            "run_microbench",
            lambda path: {"benchmarks": [{"name": "test_x", "stats": stats}]},
        )
        rows = tuple(
            gate._replace(
                passes=lambda: contextlib.nullcontext(
                    (_fake([1.0] + [0.3, 0.2, 0.25] * 3), _fake([1.0] + [0.09, 0.08, 0.1] * 3))
                ),
                rounds=3,
            )
            for gate in gates.GATES
        )
        monkeypatch.setattr(gates, "GATES", rows)
        summary = run_benchmarks.fresh_summary()
        assert summary["benchmarks"] == {
            "test_x": {
                "median_us": 2000.0,
                "mean_us": 2500.0,
                "stddev_us": 100.0,
                "min_us": 1000.0,
                "rounds": 5,
            }
        }
        assert {gate.key: summary[gate.key] for gate in rows} == {
            gate.key: 1.5 if gate.bound == gates.CEILING else 2.5 for gate in rows
        }


class TestCheckBenchGates:
    """The bench guard's gate table, on synthetic summaries and baselines.

    One floor row (the grid speedup) and one ceiling row (the session
    overhead) pin the report's exact lines in both directions; every row
    gets a pass, recorded-miss, fresh-miss and missing-key case.
    """

    @pytest.fixture(scope="class")
    def module(self):
        return _load("check_bench")

    def _check(self, module, capsys, key, recorded, fresh):
        gate = next(gate for gate in module.GATES if gate.key == key)
        baseline = {} if recorded is None else {key: recorded}
        summary = {} if fresh is None else {key: fresh}
        status = module.check_gate(gate, summary, baseline, 0.5)
        return status, capsys.readouterr().out.splitlines()

    def test_table_covers_every_recorded_ratio(self, module, gates):
        assert tuple(gate.key for gate in module.GATES) == GATE_KEYS
        assert {gate.key: gate.bound for gate in gates.GATES} == {
            key: gates.CEILING if key.endswith("_overhead") else gates.FLOOR
            for key in GATE_KEYS
        }
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
        # Each row keeps its live gate's round count.
        assert {gate.key: gate.rounds for gate in gates.GATES} == dict(
            dict.fromkeys(GATE_KEYS, 5), grid_speedup=4, stateful_tape_speedup=7
        )

    @staticmethod
    def _values(gate, case):
        """(recorded, fresh) for one case, at the edges of the bar where
        the relation matters: a floor holds at its bar, a ceiling fails
        at its own."""
        bar = gate.bar
        if gate.bound == "floor":
            cases = {
                "pass": (bar, bar * 0.6),
                "recorded_miss": (bar * 0.96, bar),
                "fresh_miss": (bar * 2, bar * 0.45),
            }
        else:
            cases = {
                "pass": (bar * 0.5, bar * 1.25),
                "recorded_miss": (bar, bar * 0.5),
                "fresh_miss": (bar * 0.5, bar * 1.5),
            }
        return cases.get(case, (None, None))

    @pytest.mark.parametrize("case", ["pass", "recorded_miss", "fresh_miss", "missing_keys"])
    @pytest.mark.parametrize("key", GATE_KEYS)
    def test_gate(self, module, capsys, key, case):
        gate = next(gate for gate in module.GATES if gate.key == key)
        recorded, fresh = self._values(gate, case)
        status, lines = self._check(module, capsys, key, recorded, fresh)
        flagged = ["REGRESSION" in line for line in lines]
        assert flagged == {
            "pass": [False, False],
            "recorded_miss": [True, False],
            "fresh_miss": [False, True],
            "missing_keys": [True, True],
        }[case]
        assert status == int(any(flagged))
        assert lines[0].startswith(f"  {gate.label}: baseline records ")
        assert lines[1].startswith(f"  {gate.label} (fresh): ")
        if case == "missing_keys":
            assert lines[0].endswith("records none  <-- REGRESSION")
            assert lines[1].endswith("(fresh): not measured  <-- REGRESSION")
        else:
            assert f"(gate {gate.relation} {gate.limit(gate.bar)})" in lines[0]
            assert f"({gate.bound} " in lines[1]

    def test_one_measurement_feeds_every_consumer(self, module, gates, monkeypatch, tmp_path, capsys):
        """With ``gates.measure`` patched to fixed ratios, the recorded
        summary, the guard's fresh check and the live gate all read them."""
        run_benchmarks = sys.modules["run_benchmarks"]  # the one check_bench imported
        live = _load("test_gates", SCRIPTS.parent / "benchmarks")
        ratios = {
            gate.key: gate.bar * (2.0 if gate.bound == gates.FLOOR else 0.5)
            for gate in gates.GATES
        }
        monkeypatch.setattr(gates, "measure", lambda gate: ratios[gate.key])
        monkeypatch.setattr(run_benchmarks, "run_microbench", lambda path: {"benchmarks": []})
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(dict(ratios, benchmarks={})), encoding="utf-8")
        monkeypatch.setattr(sys, "argv", ["check_bench.py", "--baseline", str(baseline)])

        assert {key: run_benchmarks.fresh_summary()[key] for key in ratios} == ratios
        assert module.main() == 0
        out = capsys.readouterr().out
        for gate in gates.GATES:
            assert f"  {gate.label} (fresh): {gate.show(ratios[gate.key])} (" in out
            live.test_gate(gate)

        ratios["grid_speedup"] = 4.0
        assert run_benchmarks.fresh_summary()["grid_speedup"] == 4.0
        assert module.main() == 1
        assert "grid speedup (fresh): 4.00x (floor 5.0x at 50% tolerance)  <-- REGRESSION" in (
            capsys.readouterr().out
        )
        with pytest.raises(AssertionError, match="grid speedup 4.00x misses its bar"):
            live.test_gate(gates.GATES[0])

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
            "  grid speedup (fresh): not measured  <-- REGRESSION",
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
            "  session overhead (fresh): not measured  <-- REGRESSION",
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

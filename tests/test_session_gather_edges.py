"""Session.gather edge cases: dedup vs cache races, demotion, control.

The gather loop composes four mechanisms — within-gather dedup, the
content-addressed cache, lane packing with loud demotion, and the
cooperative :class:`~repro.session.control.RunControl` — and the edges
live where they meet:

- duplicate submissions racing a cache write: however the duplicate is
  discovered (dedup before execution, or a cache entry that appeared
  between submit and gather), exactly one execution and one store
  happen and both outcomes carry identical bytes;
- a lane pack that demotes at runtime must not disturb the cache hits
  gathered alongside it, and order is preserved throughout;
- an empty gather is a no-op, not an error;
- a corrupt cache entry discovered mid-gather quarantines as a miss
  and the gather heals by re-executing;
- a tripped control (cancel or deadline) raises out of the gather
  before new work starts, and at cell boundaries within it.
"""

import pickle
import time

import pytest

from repro.errors import CancelledRunError, DeadlineExceededError
from repro.experiments.cache import ResultCache
from repro.experiments.runner import SimulationSettings
from repro.session.control import RunControl
from repro.session.outcome import CellFailure, SessionStats
from repro.session.request import RunRequest
from repro.session.session import Session
from repro.workload.scenarios import equal_load

SETTINGS = SimulationSettings(batches=2, batch_size=30, warmup=5, seed=13)
EVENT_SETTINGS = SimulationSettings(
    batches=2, batch_size=30, warmup=5, seed=13, engine="event"
)


def _scenario():
    return equal_load(3, 0.5)


class TestDuplicatesRacingTheCache:
    def test_dup_in_one_gather_executes_once_and_stores_once(self, tmp_path):
        cache = ResultCache(tmp_path)
        session = Session(cache=cache)
        session.submit(_scenario(), "rr", SETTINGS)
        session.submit(_scenario(), "rr", SETTINGS)
        outcomes = session.gather()
        assert [outcome.route for outcome in outcomes] == ["lanes", "dedup"]
        assert cache.stores == 1  # the race cannot double-write
        assert session.stats.executed == 1
        assert pickle.dumps(outcomes[0].result) == pickle.dumps(outcomes[1].result)

    def test_entry_written_between_submit_and_gather_wins(self, tmp_path):
        # Another client stores the cell after this session queued it:
        # the gather must replay the entry, not execute a second time.
        cache = ResultCache(tmp_path)
        request = RunRequest(_scenario(), "rr", SETTINGS)
        stored = Session(cache=cache).run_requests([request])[0]
        session = Session(cache=cache)
        session.submit_request(request)
        session.submit_request(request)  # and a duplicate on top
        outcomes = session.gather()
        assert [outcome.route for outcome in outcomes] == ["cache", "dedup"]
        assert session.stats.executed == 0
        assert pickle.dumps(outcomes[0].result) == pickle.dumps(stored.result)

    def test_dedup_ignores_tags_but_not_settings(self, tmp_path):
        session = Session(cache=ResultCache(tmp_path))
        session.submit(_scenario(), "rr", SETTINGS, tag="first")
        session.submit(_scenario(), "rr", SETTINGS, tag="second")  # same cell
        session.submit(_scenario(), "rr", EVENT_SETTINGS)  # same cell, epoch-6
        outcomes = session.gather()
        # The engine selector is not part of identity (epoch 6): all
        # three collapse onto one execution.
        assert session.stats.executed == 1
        assert [outcome.route for outcome in outcomes] == [
            "lanes", "dedup", "dedup"
        ]


class TestLaneDemotionInterleavedWithHits:
    def test_demoted_lanes_leave_cache_hits_untouched(self, tmp_path, monkeypatch):
        import repro.session.execute as execute_module

        cache = ResultCache(tmp_path)
        hit_request = RunRequest(_scenario(), "rr", SETTINGS)
        clean = Session(cache=cache).run_requests([hit_request])[0].result

        def explode(cells):
            raise RuntimeError("lane pack exploded")

        monkeypatch.setattr(execute_module, "_default_lane_runner", explode)
        session = Session(cache=cache)
        session.submit_request(hit_request)  # cache hit
        miss = RunRequest(_scenario(), "fcfs", SETTINGS)  # lane -> demoted
        session.submit_request(miss)
        session.submit_request(hit_request)  # duplicate of the hit
        with pytest.warns(RuntimeWarning, match="fell back"):
            outcomes = session.gather()
        assert [outcome.route for outcome in outcomes] == [
            "cache", "direct", "dedup"
        ]
        assert outcomes[1].fallback is True
        assert session.stats.fallback_cells == 1
        assert pickle.dumps(outcomes[0].result) == pickle.dumps(clean)
        # The demoted cell's result matches an untroubled lane run
        # (run_lanes is still patched, so the reference demotes too —
        # engines are bit-identical, so the comparison is exact either way).
        with pytest.warns(RuntimeWarning, match="fell back"):
            reference = Session().run_requests([miss])[0].result
        assert pickle.dumps(outcomes[1].result) == pickle.dumps(reference)

    def test_demoted_cells_are_still_stored(self, tmp_path, monkeypatch):
        import repro.session.execute as execute_module

        monkeypatch.setattr(
            execute_module, "_default_lane_runner",
            lambda cells: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        cache = ResultCache(tmp_path)
        session = Session(cache=cache)
        session.submit(_scenario(), "rr", SETTINGS)
        with pytest.warns(RuntimeWarning):
            outcomes = session.gather()
        assert outcomes[0].stored is True
        assert cache.stores == 1
        # A later gather replays the demoted cell's stored result.
        follow = Session(cache=cache)
        follow.submit(_scenario(), "rr", SETTINGS)
        assert [outcome.route for outcome in follow.gather()] == ["cache"]

    def test_an_invalid_run_length_fails_alone_and_demotes_no_pack(self):
        # batches=1 passes every other lane check, but the collector
        # refuses it: planned as a lane, it failed the whole pack and
        # dragged its valid neighbours onto the event engine.
        import warnings
        from dataclasses import replace

        from repro.session import execute_plan, plan_runs

        plan = plan_runs(
            [
                RunRequest(_scenario(), "rr", SETTINGS),
                RunRequest(_scenario(), "fcfs", SETTINGS),
                RunRequest(_scenario(), "rr", replace(SETTINGS, batches=1)),
            ]
        )
        stats = SessionStats()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outcomes = execute_plan(plan, stats=stats)
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert [outcome.route for outcome in outcomes[:2]] == ["lanes", "lanes"]
        assert [outcome.failure for outcome in outcomes[:2]] == [None, None]
        assert isinstance(outcomes[2].failure, CellFailure)
        assert "need >= 2 batches" in str(outcomes[2].failure)
        assert stats.fallback_cells == 0


class TestEmptyGather:
    def test_empty_gather_returns_empty(self, tmp_path):
        session = Session(cache=ResultCache(tmp_path))
        assert session.gather() == []
        assert session.stats.executed == 0

    def test_gather_drains_pending(self):
        session = Session()
        session.submit(_scenario(), "rr", SETTINGS)
        assert len(session.gather()) == 1
        assert session.gather() == []  # nothing left behind


class TestQuarantineDuringGather:
    def test_corrupt_entry_quarantines_and_the_gather_heals(self, tmp_path):
        cache = ResultCache(tmp_path)
        request = RunRequest(_scenario(), "rr", SETTINGS)
        key = request.cache_key()
        clean = Session(cache=cache).run_requests([request])[0].result
        (tmp_path / f"{key}.pkl").write_bytes(b"truncated garbage")
        session = Session(cache=cache)
        session.submit_request(request)
        with pytest.warns(RuntimeWarning, match="corrupt cache entry"):
            outcomes = session.gather()
        assert cache.quarantined == 1
        assert (tmp_path / f"{key}.corrupt").exists()
        # The gather re-executed and re-stored a valid entry...
        assert outcomes[0].route in ("lanes", "direct")
        assert pickle.dumps(outcomes[0].result) == pickle.dumps(clean)
        # ...which the next gather replays without complaint.
        follow = Session(cache=cache)
        follow.submit_request(request)
        assert follow.gather()[0].route == "cache"

    def test_wrong_type_payload_quarantines_not_propagates(self, tmp_path):
        cache = ResultCache(tmp_path)
        request = RunRequest(_scenario(), "rr", SETTINGS)
        key = request.cache_key()
        cache.directory.mkdir(parents=True, exist_ok=True)
        (tmp_path / f"{key}.pkl").write_bytes(
            pickle.dumps({"not": "a RunResult"})
        )
        with pytest.warns(RuntimeWarning, match="not RunResult"):
            assert cache.get(key) is None
        assert cache.quarantined == 1

    def test_oserror_while_reading_is_a_quarantined_miss(self, tmp_path, monkeypatch):
        import pathlib

        cache = ResultCache(tmp_path)
        request = RunRequest(_scenario(), "rr", SETTINGS)
        key = request.cache_key()
        Session(cache=cache).run_requests([request])
        real_open = pathlib.Path.open

        def failing_open(self, *args, **kwargs):
            if self.suffix == ".pkl":
                raise OSError(5, "Input/output error")
            return real_open(self, *args, **kwargs)

        misses_before = cache.misses
        monkeypatch.setattr(pathlib.Path, "open", failing_open)
        with pytest.warns(RuntimeWarning, match="corrupt cache entry"):
            assert cache.get(key) is None
        assert cache.quarantined == 1
        assert cache.misses == misses_before + 1


class TestRunControl:
    def test_cancelled_control_stops_the_gather_before_work(self):
        control = RunControl()
        control.cancel("user hit ^C")
        session = Session()
        session.submit(_scenario(), "rr", SETTINGS)
        with pytest.raises(CancelledRunError, match="user hit"):
            session.gather(control=control)
        assert session.stats.executed == 0

    def test_expired_deadline_raises_deadline_exceeded(self):
        control = RunControl.after(0.0)
        session = Session()
        session.submit(_scenario(), "rr", SETTINGS)
        with pytest.raises(DeadlineExceededError):
            session.gather(control=control)

    def test_deadline_beats_cancel_in_the_diagnostic(self):
        control = RunControl.after(0.0)
        control.cancel("also cancelled")
        with pytest.raises(DeadlineExceededError):
            control.check()

    def test_unbounded_control_reports_no_deadline(self):
        control = RunControl()
        assert control.remaining() is None
        assert repr(control) == "RunControl(live, deadline_at=None)"
        control.cancel()
        assert repr(control) == "RunControl(cancelled, deadline_at=None)"

    def test_generous_deadline_completes_normally(self):
        control = RunControl.after(300.0)
        session = Session()
        session.submit(_scenario(), "rr", SETTINGS)
        outcomes = session.gather(control=control)
        assert len(outcomes) == 1
        assert control.remaining() > 0

    def test_cancellation_at_a_cell_boundary_mid_batch(self):
        # The serial direct runner checks the control between cells: a
        # control that trips after the first cell stops the batch there.
        fired = {"cells": 0}
        clock_now = time.monotonic()

        def clock():
            return clock_now + fired["cells"]  # advances one "second" per cell

        control = RunControl(deadline_at=clock_now + 0.5, clock=clock)
        from repro.session.execute import execute_plan
        from repro.session.planner import plan_runs

        requests = [
            RunRequest(_scenario(), "rr", EVENT_SETTINGS),
            RunRequest(_scenario(), "fcfs", EVENT_SETTINGS),
        ]

        def counting_runner(batch, keys):
            results = []
            for request in batch:
                control.check()
                fired["cells"] += 1
                from repro.session.single import run_cell

                results.append(
                    run_cell(request.scenario, request.protocol, request.settings)
                )
            return results

        with pytest.raises(DeadlineExceededError):
            execute_plan(
                plan_runs(requests), direct_runner=counting_runner, control=control
            )
        assert fired["cells"] == 1  # second cell never started

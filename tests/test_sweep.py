"""Tests for sweeps through a session and the content-addressed result cache.

The load-bearing property is *determinism*: a sweep's results must be a
pure function of its requests — independent of worker count, execution
order, cache state, and how many requests share a scenario object.
Every test here ultimately checks some facet of that.
"""

import pickle
from dataclasses import replace

import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, SweepExecutionError
from repro.service import shards as shards_module
from repro.session import single as single_module
from repro.experiments.cache import ResultCache, cache_key
from repro.experiments.runner import SimulationSettings, run_simulation
from repro.session import RunRequest, Session
from repro.session.session import resolve_jobs
from repro.signals.contention import ParallelContention
from repro.workload.scenarios import AgentSpec, ScenarioSpec, equal_load
from repro.workload.traces import TraceDistribution

from _utils import run_results

SETTINGS = SimulationSettings(batches=3, batch_size=60, warmup=30, seed=424242)

#: Cells pinned to the event engine: the per-cell execution backends
#: (process pools, retries, failure diagnostics) only see cells that
#: are not swept into the lane-packed batch path.
EVENT_SETTINGS = replace(SETTINGS, engine="event")


def _fingerprint(result):
    """Everything observable about a run, exactly (no tolerances)."""
    return (
        result.protocol,
        result.utilization,
        result.elapsed,
        tuple(
            (
                batch.count,
                batch.sum_waiting,
                batch.sum_waiting_sq,
                batch.sum_queueing,
                batch.start_time,
                batch.end_time,
                tuple(sorted(batch.agent_counts.items())),
            )
            for batch in result.collector.completed_batches()
        ),
    )


def _grid(loads=(0.5, 1.5), protocols=("rr", "fcfs"), settings=SETTINGS):
    return [
        RunRequest(equal_load(6, load), protocol, settings)
        for load in loads
        for protocol in protocols
    ]


class TestSerialExecution:
    def test_matches_direct_run_simulation(self):
        result = Session(jobs=1).simulate(equal_load(6, 1.5), "rr", SETTINGS)
        direct = run_simulation(equal_load(6, 1.5), "rr", SETTINGS)
        assert _fingerprint(result) == _fingerprint(direct)

    def test_results_in_cell_order(self):
        cells = _grid()
        results = run_results(Session(jobs=1), cells)
        assert [r.protocol for r in results] == [c.protocol for c in cells]

    def test_shared_trace_scenario_cells_are_independent(self):
        # Two cells sharing one stateful trace-replay scenario object
        # must both start from the same trace position (each cell gets a
        # private copy), so cells that differ only in a setting the
        # simulation never reads give identical results.  (Fully
        # identical cells would dedup onto one run in the planner.)
        trace = tuple(float(2 + (i * 7) % 5) for i in range(400))
        scenario = ScenarioSpec(
            name="shared-trace",
            agents=tuple(
                AgentSpec(agent_id=i, interrequest=TraceDistribution(trace, cycle=True))
                for i in range(1, 5)
            ),
        )
        session = Session(jobs=1)
        first, second = run_results(
            session,
            [
                RunRequest(scenario, "rr", SETTINGS),
                RunRequest(scenario, "rr", replace(SETTINGS, confidence=0.95)),
            ]
        )
        assert session.stats.executed == 2
        assert _fingerprint(first) == _fingerprint(second)


    def test_identical_cells_run_once(self):
        session = Session(jobs=1)
        first, second = run_results(
            session,
            [RunRequest(equal_load(4, 1.0), "rr", SETTINGS, tag=tag) for tag in "ab"]
        )
        assert session.stats.executed == 1
        assert session.stats.deduplicated == 1
        assert pickle.dumps(first) == pickle.dumps(second)


class TestParallelExecution:
    def test_bit_identical_to_serial(self):
        cells = _grid(loads=(0.5, 1.5, 2.5), settings=EVENT_SETTINGS)
        serial = run_results(Session(jobs=1), cells)
        parallel_session = Session(jobs=2)
        parallel = run_results(parallel_session, cells)
        assert [_fingerprint(r) for r in parallel] == [
            _fingerprint(r) for r in serial
        ]
        assert [pickle.dumps(r) for r in parallel] == [pickle.dumps(r) for r in serial]
        # One of the two backends must have run the batch; on platforms
        # without process pools the fallback path was exercised instead,
        # which the equality above covers identically.
        stats = parallel_session.stats
        assert stats.parallel_batches + stats.serial_batches == 1

    def test_single_cell_stays_serial(self):
        session = Session(jobs=4)
        run_results(session, [RunRequest(equal_load(4, 1.0), "rr", SETTINGS)])
        assert session.stats.parallel_batches == 0


class _BrokenSubmitPool:
    """A pool whose first submit tears, as a crashed worker would."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, *args, **kwargs):
        from concurrent.futures import BrokenExecutor

        raise BrokenExecutor("worker pool torn down")

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class _UnavailablePool:
    """A platform where process pools cannot even be created."""

    def __init__(self, max_workers):
        raise OSError("no semaphores available")


class TestRetryAndDegradation:
    def test_transient_failure_is_retried_once_and_heals(self, monkeypatch):
        real = single_module.run_cell
        calls = {"n": 0}

        def flaky(scenario, protocol, settings):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient worker loss")
            return real(scenario, protocol, settings)

        monkeypatch.setattr(single_module, "run_cell", flaky)
        cells = _grid(loads=(0.5,), protocols=("rr", "fcfs"), settings=EVENT_SETTINGS)
        session = Session(jobs=1)
        results = run_results(session, cells)
        assert [r.protocol for r in results] == ["rr", "fcfs"]
        assert session.stats.retries == 1
        assert session.stats.failures == []
        # The healed cell's result matches an untroubled run exactly.
        clean = run_results(Session(jobs=1), cells)
        assert [_fingerprint(r) for r in results] == [
            _fingerprint(r) for r in clean
        ]

    def test_persistent_failure_raises_with_cell_diagnostics(self, monkeypatch):
        def doomed(scenario, protocol, settings):
            raise RuntimeError("deterministic bug")

        monkeypatch.setattr(single_module, "run_cell", doomed)
        session = Session(jobs=1)
        cells = [
            RunRequest(equal_load(4, 1.0), protocol, EVENT_SETTINGS, tag=f"probe-{protocol}")
            for protocol in ("rr", "fcfs")
        ]
        with pytest.raises(SweepExecutionError) as excinfo:
            run_results(session, cells)
        message = str(excinfo.value)
        # The message names every failed cell, not just the first.
        assert message.startswith("2 sweep cell(s) failed after retry")
        assert "probe-rr" in message and "probe-fcfs" in message
        assert "deterministic bug" in message
        assert len(session.stats.failures) == 2
        failure = session.stats.failures[0]
        assert failure.protocol == "rr"
        assert failure.tag == "probe-rr"
        assert failure.first_error == failure.error
        assert session.stats.retries == 2

    def test_broken_pool_degrades_to_serial(self, monkeypatch):
        monkeypatch.setattr(shards_module, "ProcessPoolExecutor", _BrokenSubmitPool)
        cells = _grid(settings=EVENT_SETTINGS)
        session = Session(jobs=2)
        results = run_results(session, cells)
        serial = run_results(Session(jobs=1), cells)
        assert [_fingerprint(r) for r in results] == [
            _fingerprint(r) for r in serial
        ]
        # A pool that tears at submit degrades the batch to the serial
        # path; nothing raised, so nothing needed a retry.
        assert session.stats.serial_batches == 1
        assert session.stats.retries == 0
        assert session.stats.failures == []

    def test_unconstructible_pool_falls_back_to_plain_serial(self, monkeypatch):
        monkeypatch.setattr(shards_module, "ProcessPoolExecutor", _UnavailablePool)
        cells = _grid(settings=EVENT_SETTINGS)
        session = Session(jobs=2)
        results = run_results(session, cells)
        serial = run_results(Session(jobs=1), cells)
        assert [_fingerprint(r) for r in results] == [
            _fingerprint(r) for r in serial
        ]
        # The whole batch re-ran serially without touching retry logic.
        assert session.stats.serial_batches == 1
        assert session.stats.retries == 0


class TestResolveJobs:
    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_jobs(-1)

    def test_zero_means_all_cores(self):
        assert resolve_jobs(0) >= 1

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert Session().jobs == 3

    def test_env_garbage_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ConfigurationError):
            Session()


class TestCacheKey:
    def test_stable(self):
        assert cache_key(equal_load(6, 1.5), "rr", SETTINGS) == cache_key(
            equal_load(6, 1.5), "rr", SETTINGS
        )

    def test_sensitive_to_protocol(self):
        scenario = equal_load(6, 1.5)
        assert cache_key(scenario, "rr", SETTINGS) != cache_key(
            scenario, "fcfs", SETTINGS
        )

    def test_sensitive_to_seed(self):
        scenario = equal_load(6, 1.5)
        reseeded = SimulationSettings(
            batches=SETTINGS.batches,
            batch_size=SETTINGS.batch_size,
            warmup=SETTINGS.warmup,
            seed=SETTINGS.seed + 1,
        )
        assert cache_key(scenario, "rr", SETTINGS) != cache_key(
            scenario, "rr", reseeded
        )

    def test_sensitive_to_scenario(self):
        assert cache_key(equal_load(6, 1.5), "rr", SETTINGS) != cache_key(
            equal_load(6, 2.0), "rr", SETTINGS
        )


class TestResultCache:
    def test_cold_run_executes_then_warm_run_replays(self, tmp_path):
        cells = _grid()
        cold = Session(jobs=1, cache=ResultCache(tmp_path))
        cold_results = run_results(cold, cells)
        assert cold.stats.executed == len(cells)
        assert cold.stats.cache_hits == 0

        warm = Session(jobs=1, cache=ResultCache(tmp_path))
        warm_results = run_results(warm, cells)
        assert warm.stats.executed == 0
        assert warm.stats.cache_hits == len(cells)
        assert [_fingerprint(r) for r in warm_results] == [
            _fingerprint(r) for r in cold_results
        ]

    def test_seed_change_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_results(Session(jobs=1, cache=cache), _grid())
        reseeded = SimulationSettings(
            batches=SETTINGS.batches,
            batch_size=SETTINGS.batch_size,
            warmup=SETTINGS.warmup,
            seed=SETTINGS.seed + 1,
        )
        session = Session(jobs=1, cache=ResultCache(tmp_path))
        run_results(session, [RunRequest(equal_load(6, 0.5), "rr", reseeded)])
        assert session.stats.cache_hits == 0
        assert session.stats.executed == 1

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key(equal_load(4, 1.0), "rr", SETTINGS)
        cache.put(key, run_simulation(equal_load(4, 1.0), "rr", SETTINGS))
        path = tmp_path / f"{key}.pkl"
        path.write_bytes(b"not a pickle")
        with pytest.warns(RuntimeWarning):
            assert cache.get(key) is None
        assert not path.exists()

    def test_corrupt_entry_is_quarantined_for_inspection(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key(equal_load(4, 1.0), "rr", SETTINGS)
        cache.put(key, run_simulation(equal_load(4, 1.0), "rr", SETTINGS))
        path = tmp_path / f"{key}.pkl"
        path.write_bytes(b"truncated garbage")
        with pytest.warns(RuntimeWarning, match="corrupt cache entry"):
            assert cache.get(key) is None
        assert cache.quarantined == 1
        # The bytes survive under .corrupt for post-mortem, and the key
        # is a clean miss that can be re-stored and re-read normally.
        quarantined = tmp_path / f"{key}.corrupt"
        assert quarantined.read_bytes() == b"truncated garbage"
        result = run_simulation(equal_load(4, 1.0), "rr", SETTINGS)
        cache.put(key, result)
        assert _fingerprint(cache.get(key)) == _fingerprint(result)

    def test_truncated_pickle_detected(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key(equal_load(4, 1.0), "rr", SETTINGS)
        cache.put(key, run_simulation(equal_load(4, 1.0), "rr", SETTINGS))
        path = tmp_path / f"{key}.pkl"
        path.write_bytes(path.read_bytes()[: 50])
        with pytest.warns(RuntimeWarning, match="corrupt cache entry"):
            assert cache.get(key) is None
        assert cache.misses == 1

    def test_file_as_cache_dir_rejected(self, tmp_path):
        path = tmp_path / "occupied"
        path.write_text("not a directory")
        with pytest.raises(ConfigurationError):
            ResultCache(path)

    def test_clear_and_len(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_results(Session(jobs=1, cache=cache), _grid())
        assert len(cache) == 4
        assert cache.clear() == 4
        assert len(cache) == 0

    def test_entries_round_trip_through_pickle(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = Session(jobs=1, cache=cache).simulate(
            equal_load(4, 1.0), "rr", SETTINGS
        )
        key = cache_key(equal_load(4, 1.0), "rr", SETTINGS)
        reloaded = pickle.loads((tmp_path / f"{key}.pkl").read_bytes())
        assert _fingerprint(reloaded) == _fingerprint(result)


class TestContentionMemo:
    @given(
        rounds=st.lists(
            st.sets(st.integers(min_value=1, max_value=31), min_size=1, max_size=6),
            min_size=1,
            max_size=25,
        )
    )
    @hyp_settings(max_examples=60, deadline=None)
    def test_memoized_matches_uncached(self, rounds):
        memoized = ParallelContention(5)
        uncached = ParallelContention(5, cache_size=0)
        for identities in rounds:
            competitors = sorted(identities)
            assert memoized.resolve(competitors) == uncached.resolve(competitors)

    def test_cache_hits_counted(self):
        contention = ParallelContention(5)
        contention.resolve([3, 9])
        contention.resolve([9, 3])  # same set, different order: memo hit
        assert contention.cache_hits == 1

    def test_bounded_cache_clears_when_full(self):
        contention = ParallelContention(5, cache_size=2)
        contention.resolve([1])
        contention.resolve([2])
        contention.resolve([3])  # exceeds the bound: memo restarts
        contention.resolve([3])
        assert contention.cache_hits == 1
        assert len(contention._cache) <= 2

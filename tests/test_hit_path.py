"""The hit path: one key per request, interned decodes, a hot cache tier.

A cache hit should cost the caller almost nothing and never reach the
service's dispatcher:

- :meth:`RunRequest.cache_key` hashes once per request object, and
  :meth:`RunRequest.resolved` carries the key over;
- :meth:`RunRequest.from_json` interns decoded requests in a bounded
  table keyed by ``(cls, payload)``, never storing a stateful request
  or a payload that fails to decode;
- :class:`ResultCache` keeps results it read from disk in a bounded hot
  tier, re-validated by one ``os.stat`` per hit, and keeps its stated
  guarantees when another instance or process changes an entry;
- :meth:`ArbitrationService.submit` answers an all-hit job in the
  caller's thread, and its counters stay exact under client threads.
"""

import json
import os
import pathlib
import pickle
import subprocess
import sys
import threading
import time

import pytest

import repro.session.request as request_module
from repro.errors import ConfigurationError
from repro.experiments import cache as cache_module
from repro.experiments.cache import ResultCache, cache_key
from repro.experiments.runner import SimulationSettings, run_simulation
from repro.observability.sinks import InMemorySink
from repro.service import ArbitrationService, Job, ServiceConfig
from repro.session import RunRequest, Session
from repro.session.request import INTERN_LIMIT, clear_interned
from repro.workload.arrivals import MarkovModulatedPoisson
from repro.workload.scenarios import AgentSpec, ScenarioSpec, equal_load

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _settings(seed=11):
    return SimulationSettings(batches=2, batch_size=30, warmup=5, seed=seed, engine="batch")


def _request(seed=11, agents=3):
    return RunRequest(equal_load(agents, 0.5), "rr", _settings(seed))


def _mmpp_request():
    agent = AgentSpec(
        agent_id=1,
        interrequest=MarkovModulatedPoisson(rates=(2.0, 0.5), switch_rates=(0.1, 0.1)),
        open_loop=True,
    )
    return RunRequest(ScenarioSpec(name="bursty", agents=(agent,)), "rr", _settings())


def _result(seed=11):
    return run_simulation(equal_load(3, 0.5), "rr", _settings(seed))


@pytest.fixture(autouse=True)
def _fresh_intern_table():
    clear_interned()
    yield
    clear_interned()


class _CountingRequest(RunRequest):
    """A subclass: its decodes are interned apart from the base class's."""


class TestOneKeyPerRequest:
    def test_the_key_is_computed_once(self, monkeypatch):
        calls = []
        real = cache_module.cache_key

        def counting(*cell):
            calls.append(cell[1])
            return real(*cell)

        monkeypatch.setattr(cache_module, "cache_key", counting)
        request = _request()
        first = request.cache_key()
        assert request.cache_key() == first
        assert calls == ["rr"]

    def test_resolved_carries_the_key_across_engines(self, monkeypatch):
        request = RunRequest(equal_load(3, 0.5), "rr")  # settings resolve later
        key = request.cache_key()
        fresh = cache_key(*request.resolved().as_cell())
        assert key == fresh
        monkeypatch.setattr(cache_module, "cache_key", None)  # no more hashing
        for engine in ("event", "batch"):
            assert request.resolved(engine).cache_key() == fresh

    def test_a_stateful_request_is_hashed_every_time(self):
        request = _mmpp_request()
        assert request.stateful
        before = request.cache_key()
        phase = request.scenario.agents[0].interrequest
        phase.phase = 1 - phase.phase  # the key follows the state
        after = request.cache_key()
        assert after != before
        assert after == cache_key(*request.resolved().as_cell())


class TestInternedCodec:
    def test_the_same_payload_decodes_to_the_same_object(self):
        wire = _request().to_json()
        first = RunRequest.from_json(wire)
        assert RunRequest.from_json(wire) is first
        assert first.cache_key() == _request().cache_key()

    def test_the_table_is_keyed_on_the_class(self):
        wire = _request().to_json()
        plain = RunRequest.from_json(wire)
        counted = _CountingRequest.from_json(wire)
        assert type(counted) is _CountingRequest
        assert _CountingRequest.from_json(wire) is counted
        assert RunRequest.from_json(wire) is plain

    def test_a_stateful_request_is_never_stored(self):
        wire = _mmpp_request().to_json()
        first = RunRequest.from_json(wire)
        assert RunRequest.from_json(wire) is not first
        assert len(request_module._interned) == 0

    def test_a_failing_payload_is_never_stored(self):
        wire = json.dumps({"format": 999})
        for __ in range(2):
            with pytest.raises(ConfigurationError, match="unsupported RunRequest format"):
                RunRequest.from_json(wire)
        assert len(request_module._interned) == 0
        with pytest.raises(ConfigurationError, match="must be an object"):
            RunRequest.from_json("[]")
        with pytest.raises(ConfigurationError, match="malformed"):
            RunRequest.from_json("{")

    def test_the_table_is_bounded_least_recently_used_first(self):
        wires = [_request(seed=seed).to_json() for seed in range(INTERN_LIMIT + 1)]
        first = RunRequest.from_json(wires[0])
        for wire in wires[1:]:
            RunRequest.from_json(wire)
        assert len(request_module._interned) == INTERN_LIMIT
        assert RunRequest.from_json(wires[0]) is not first  # evicted
        assert RunRequest.from_json(wires[-1]) is RunRequest.from_json(wires[-1])

    def test_from_dict_builds_a_fresh_request(self):
        doc = _request().to_dict()
        assert RunRequest.from_dict(doc) is not RunRequest.from_dict(doc)


def _forbid_disk_reads(monkeypatch):
    real_open = pathlib.Path.open

    def refusing(self, *args, **kwargs):
        if self.suffix == ".pkl":
            raise AssertionError("a hot hit must not open the entry")
        return real_open(self, *args, **kwargs)

    monkeypatch.setattr(pathlib.Path, "open", refusing)


class TestHotTier:
    def test_a_second_get_is_served_from_memory(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        cache.put("k", _result())
        first = cache.get("k")
        _forbid_disk_reads(monkeypatch)
        assert cache.get("k") is first
        assert (cache.hits, cache.misses) == (2, 0)

    def test_put_does_not_fill_the_tier(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k", _result())
        assert len(cache._hot) == 0

    def test_the_tier_is_bounded(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cache_module, "HOT_LIMIT", 2)
        cache = ResultCache(tmp_path)
        result = _result()
        for key in "abc":
            cache.put(key, result)
            cache.get(key)
        assert list(cache._hot) == ["b", "c"]

    def test_own_clear_empties_the_tier(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k", _result())
        cache.get("k")
        assert cache.clear() == 1
        assert cache.get("k") is None
        assert len(cache._hot) == 0


class TestAnotherWriterChangesAHotEntry:
    """Instance A holds ``k`` hot; instance B (or a process) changes it."""

    @pytest.fixture
    def hot(self, tmp_path):
        a = ResultCache(tmp_path)
        a.put("k", _result(seed=11))
        assert a.get("k") is not None
        return a, ResultCache(tmp_path)

    def test_a_replaced_entry_is_re_read(self, hot):
        a, b = hot
        other = _result(seed=12)
        b.put("k", other)  # os.replace of a temp file
        assert pickle.dumps(a.get("k")) == pickle.dumps(other)

    def test_garbage_written_over_it_is_quarantined(self, hot, tmp_path):
        a, __ = hot
        (tmp_path / "k.pkl").write_bytes(b"garbage")
        with pytest.warns(RuntimeWarning, match="corrupt cache entry"):
            assert a.get("k") is None
        assert a.quarantined == 1
        assert (tmp_path / "k.corrupt").read_bytes() == b"garbage"

    def test_an_entry_quarantined_elsewhere_is_a_miss(self, hot, tmp_path):
        a, b = hot
        with pytest.warns(RuntimeWarning, match="checked elsewhere"):
            b._quarantine(tmp_path / "k.pkl", ValueError("checked elsewhere"))
        assert a.get("k") is None
        assert a.misses == 1

    def test_a_cleared_directory_is_a_miss(self, hot):
        a, b = hot
        assert b.clear() == 1
        assert a.get("k") is None
        assert a.misses == 1

    def test_another_process_replacing_then_quarantining(self, hot, tmp_path):
        a, __ = hot
        other = _result(seed=12)
        (tmp_path / "other.bin").write_bytes(pickle.dumps(other))
        script = (
            "import pickle, sys\n"
            "from repro.experiments.cache import ResultCache\n"
            "cache = ResultCache(sys.argv[1])\n"
            "with open(sys.argv[2], 'rb') as handle:\n"
            "    cache.put('k', pickle.load(handle))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        subprocess.run(
            [sys.executable, "-c", script, str(tmp_path), str(tmp_path / "other.bin")],
            check=True,
            env=env,
        )
        assert pickle.dumps(a.get("k")) == pickle.dumps(other)
        subprocess.run(
            [sys.executable, "-c", "import os, sys; os.replace(sys.argv[1], sys.argv[2])",
             str(tmp_path / "k.pkl"), str(tmp_path / "k.corrupt")],
            check=True,
        )
        assert a.get("k") is None

    def test_two_readers_quarantining_one_entry(self, tmp_path):
        ResultCache(tmp_path).put("k", _result())
        (tmp_path / "k.pkl").write_bytes(b"garbage")
        both_read = threading.Barrier(2)

        class RacingCache(ResultCache):
            def _quarantine(self, path, exc):
                both_read.wait(10)  # each reader failed before either renames
                super()._quarantine(path, exc)

        readers = [RacingCache(tmp_path), RacingCache(tmp_path)]
        answers, errors = [], []

        def read(cache):
            try:
                answers.append(cache.get("k"))
            except BaseException as exc:  # pragma: no cover - the failure report
                errors.append(exc)

        with pytest.warns(RuntimeWarning, match="corrupt cache entry"):
            threads = [threading.Thread(target=read, args=(cache,)) for cache in readers]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert answers == [None, None]
        assert sorted(path.name for path in tmp_path.iterdir()) == ["k.corrupt"]


def _service(tmp_path, **overrides):
    overrides.setdefault("serial", True)
    overrides.setdefault("poll_interval", 0.02)
    return ArbitrationService(cache=ResultCache(tmp_path), config=ServiceConfig(**overrides))


def _warm(tmp_path, *requests):
    Session(cache=ResultCache(tmp_path), jobs=1).run_requests(list(requests))


class TestAnsweredAtAdmission:
    def test_an_all_hit_job_is_done_inside_submit(self, tmp_path):
        _warm(tmp_path, _request())
        sink = InMemorySink()
        service = ArbitrationService(
            cache=ResultCache(tmp_path), config=ServiceConfig(serial=True), sink=sink
        )
        job = service.submit([_request(), _request()])
        assert job.state == "done"
        assert [outcome.route for outcome in job.outcomes] == ["cache", "dedup"]
        assert job.started_at is not None and job.started_at >= job.submitted_at
        assert [event.kind for event in sink.events] == ["admit", "terminal"]
        assert service._dispatcher is None  # nothing was queued
        assert service.stats.cache_hits == 1 and service.stats.deduplicated == 1
        service.close()

    def test_an_all_hit_job_is_not_refused_under_backpressure(self, tmp_path):
        _warm(tmp_path, _request())
        service = _service(tmp_path, queue_limit=1)
        service.admission.offer(Job("blocker", [_request(seed=99)]))
        assert service.submit([_request(seed=98)]).state == "rejected"
        assert service.submit([_request()]).state == "done"
        service.close(drain=False)

    def test_an_all_hit_job_past_its_deadline_times_out(self, tmp_path):
        _warm(tmp_path, _request())
        with _service(tmp_path) as service:
            job = service.submit([_request()], deadline=0.0)
            assert job.state == "timeout"
            assert "deadline expired" in job.error
            assert service.stats.cache_hits == 0
            counters = service.stats_snapshot()["counters"]
            assert counters["service.deadline_exceeded"] == 1

    def test_a_request_that_cannot_be_planned_is_failed_by_the_dispatcher(
        self, tmp_path
    ):
        class Unhashable(RunRequest):
            def cache_key(self):
                raise ValueError("no key")

        broken = Unhashable(equal_load(3, 0.5), "rr", _settings())
        with _service(tmp_path) as service:
            job = service.submit([broken])
            assert job.wait(30)
        assert job.state == "failed"
        assert job.error == "internal dispatch failure (ValueError: no key)"

    def test_a_job_queued_without_planned_keys_is_hashed_by_the_dispatcher(
        self, tmp_path
    ):
        with _service(tmp_path) as service:
            job = Job("direct", [_request(seed=41)])
            assert service.admission.offer(job) is None
            service.start()
            assert job.wait(60)
        assert job.state == "done"
        assert job.outcomes[0].cache_key == _request(seed=41).cache_key()


class TestExactCountersUnderClientThreads:
    def test_eight_threads_of_all_hit_jobs(self, tmp_path):
        requests = [_request(seed=seed) for seed in range(4)]
        _warm(tmp_path, *requests)
        service = _service(tmp_path)
        wires = [request.to_json() for request in requests]
        jobs_per_thread, threads_count = 100, 8
        states = []

        def client(offset):
            for index in range(jobs_per_thread):
                wire = wires[(offset + index) % len(wires)]
                states.append(service.submit([RunRequest.from_json(wire)]).state)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(threads_count)]
        hits_before = service.cache.hits
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often: lost updates show
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        total = jobs_per_thread * threads_count
        assert states == ["done"] * total
        assert service.stats.cache_hits == total
        assert service.cache.hits - hits_before == total
        counters = service.stats_snapshot()["counters"]
        assert counters["service.cache_hits"] == total
        assert counters["service.done"] == total
        service.close()


def test_the_registry_evicts_only_the_oldest_terminal_jobs(tmp_path):
    _warm(tmp_path, _request())
    with _service(tmp_path, job_retention=2) as service:
        jobs = [service.submit([_request()]) for __ in range(4)]
        assert [job.job_id for job in jobs[2:]] == list(service._jobs)
        assert service.stats_snapshot()["jobs"] == {"done": 4}



def test_admit_is_recorded_before_the_dispatcher_can_take_the_job(tmp_path):
    """A slow sink on ``admit`` must not let ``dispatch`` overtake it."""

    class SlowAdmitSink(InMemorySink):
        def emit(self, event):
            if event.kind == "admit":
                time.sleep(0.05)  # the dispatcher is awake and waiting
            super().emit(event)

    sink = SlowAdmitSink()
    service = ArbitrationService(
        cache=ResultCache(tmp_path), config=ServiceConfig(serial=True), sink=sink
    )
    with service:
        job = service.submit([_request(seed=51)])
        assert job.wait(60)
    assert [event.kind for event in sink.events] == ["admit", "dispatch", "terminal"]


class TestCacheEdges:
    def test_default_directory_honours_the_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        assert ResultCache().directory == tmp_path / "env"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        monkeypatch.setenv("HOME", str(tmp_path))
        assert ResultCache().directory == tmp_path / ".cache" / "repro-arb"

    def test_a_failed_put_leaves_no_temp_file(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(Exception):
            cache.put("k", lambda: None)  # unpicklable
        assert list(tmp_path.iterdir()) == []
        assert cache.stores == 0

    def test_an_absent_directory_is_empty(self, tmp_path):
        cache = ResultCache(tmp_path / "absent")
        assert len(cache) == 0
        assert cache.clear() == 0
        assert cache.get("k") is None


@pytest.mark.parametrize(
    "deadline, counter", [(0.0, "service.deadline_exceeded"), (None, "service.done")]
)
def test_a_woken_waiter_already_sees_the_terminal_counter(tmp_path, deadline, counter):
    with _service(tmp_path) as service:
        count = service._count

        def slow_count(name, amount=1):
            time.sleep(0.05)  # the waiter would wake in this gap
            count(name, amount)

        service._count = slow_count
        job = service.submit([_request(seed=61)], deadline=deadline)  # a miss: queued
        assert job.wait(60)
        assert service.stats_snapshot()["counters"].get(counter) == 1

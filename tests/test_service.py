"""The arbitration service: admission, lifecycle, failure ladder.

Covers the robustness headline feature by feature, against real process
pools where the platform allows and the serial path everywhere else:

- bounded admission with explicit backpressure (reject + retry-after,
  scaled by backlog) — the queue is the service's *whole* memory
  commitment to unstarted work;
- the terminal-state guarantee: every accepted job reaches exactly one
  of done / failed / rejected / timeout, with RunOutcome provenance or
  a CellFailure diagnostic;
- per-job deadlines (queued and mid-run) and cell budgets;
- worker-crash recovery: respawn + bounded replay, then serial
  execution, then whole-pool degradation — results identical to an
  untroubled run at every rung;
- cross-client dedup and shared-cache replay;
- service counters and JSONL lifecycle telemetry.
"""

import pickle
import threading
import time
from concurrent.futures import Future

import pytest

from repro.errors import ConfigurationError, ServiceError
from repro.experiments.cache import ResultCache
from repro.experiments.runner import SimulationSettings
from repro.service import (
    AdmissionController,
    ArbitrationService,
    BackoffPolicy,
    Job,
    JobBudget,
    ServiceConfig,
    ServiceEvent,
    ShardPool,
)
from repro.session.control import RunControl
from repro.session.request import RunRequest
from repro.session.session import Session
from repro.workload.scenarios import equal_load

#: Fast, jitter-free pacing so crash tests never wait on real backoff.
FAST = BackoffPolicy(base=0.001, cap=0.01, jitter=0.0)

SETTINGS = SimulationSettings(batches=2, batch_size=30, warmup=5, seed=11)


def _request(seed=11, protocol="rr", agents=3, load=0.5, engine="batch"):
    return RunRequest(
        equal_load(agents, load), protocol, SimulationSettings(
            batches=2, batch_size=30, warmup=5, seed=seed, engine=engine
        )
    )


def _service(tmp_path=None, **overrides):
    overrides.setdefault("backoff", FAST)
    overrides.setdefault("poll_interval", 0.02)
    cache = ResultCache(tmp_path / "cache") if tmp_path is not None else None
    return ArbitrationService(cache=cache, config=ServiceConfig(**overrides))


def _fingerprint(result):
    return (
        result.elapsed,
        result.utilization,
        result.system_throughput().mean,
        result.mean_waiting().mean,
    )


class TestAdmissionController:
    def test_admits_until_the_limit_then_refuses_with_scaled_hint(self):
        admission = AdmissionController(limit=2, retry_after=0.1)
        assert admission.offer(Job("a", [])) is None
        assert admission.offer(Job("b", [])) is None
        hint = admission.offer(Job("c", []))
        assert hint == pytest.approx(0.1 * 2)  # base x backlog
        assert admission.high_water == 2

    def test_take_drains_fifo_up_to_the_gather_limit(self):
        admission = AdmissionController(limit=8)
        for name in "abcd":
            admission.offer(Job(name, []))
        first = admission.take(3, timeout=0)
        assert [job.job_id for job in first] == ["a", "b", "c"]
        assert [job.job_id for job in admission.take(3, timeout=0)] == ["d"]

    def test_closed_controller_refuses_but_stays_takeable(self):
        admission = AdmissionController(limit=4)
        admission.offer(Job("queued", []))
        admission.close()
        assert admission.offer(Job("late", [])) is not None
        assert [job.job_id for job in admission.take(4, timeout=0)] == ["queued"]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AdmissionController(limit=0)
        with pytest.raises(ConfigurationError):
            AdmissionController(retry_after=0.0)


class TestJobLifecycle:
    def test_budget_validation(self):
        with pytest.raises(ConfigurationError):
            JobBudget(deadline=-1.0)
        with pytest.raises(ConfigurationError):
            JobBudget(max_cells=0)
        assert JobBudget(deadline=0.0).deadline == 0.0  # zero is legal

    def test_terminal_state_is_written_exactly_once(self):
        job = Job("once", [])
        job._finish("done", outcomes=[])
        job._finish("failed", error="too late")
        assert job.state == "done"
        assert job.error is None

    def test_results_raise_with_state_and_diagnostic(self):
        job = Job("sad", [])
        job._finish("timeout", error="deadline expired after 0.100s")
        with pytest.raises(ServiceError, match="timeout.*deadline expired"):
            job.results()

    def test_service_event_json_is_canonical(self):
        event = ServiceEvent(seq=3, kind="admit", job_id="job-1", state="queued")
        assert event.to_json() == (
            '{"detail":"","job_id":"job-1","kind":"admit","seq":3,"state":"queued"}'
        )


class TestHappyPath:
    def test_job_runs_to_done_with_provenance(self, tmp_path):
        with _service(tmp_path, serial=True) as service:
            job = service.submit([_request(protocol="rr"), _request(protocol="fcfs")])
            assert job.wait(60)
            assert job.state == "done"
            assert [outcome.route for outcome in job.outcomes] == ["lanes", "lanes"]
            assert all(outcome.stored for outcome in job.outcomes)
            assert len(job.results()) == 2

    def test_second_client_replays_from_the_shared_cache(self, tmp_path):
        with _service(tmp_path, serial=True) as service:
            first = service.submit([_request()])
            first.wait(60)
            second = service.submit([_request()])
            second.wait(60)
            assert [outcome.route for outcome in second.outcomes] == ["cache"]
            assert pickle.dumps(first.results()[0]) == pickle.dumps(
                second.results()[0]
            )
            counters = service.stats_snapshot()["counters"]
            assert counters["service.cache_hits"] == 1
            assert counters["service.executed"] == 1

    def test_a_job_with_a_miss_reads_each_hit_once(self, tmp_path):
        # The dispatcher replays the admission plan's hits: the cache
        # counts every request of the mixed job once, as the service does.
        with _service(tmp_path, serial=True) as service:
            warm = service.submit([_request(seed=1), _request(seed=2)])
            warm.wait(60)
            mixed = service.submit([_request(seed=1), _request(seed=3), _request(seed=2)])
            assert mixed.wait(60)
            assert [outcome.route for outcome in mixed.outcomes] == ["cache", "lanes", "cache"]
            assert service.cache.hits == service.stats.cache_hits == 2

    def test_identical_requests_in_one_gather_dedup(self, tmp_path):
        with _service(tmp_path, serial=True) as service:
            job = service.submit([_request(), _request()])
            job.wait(60)
            assert job.state == "done"
            assert len(job.outcomes) == 2
            assert service.stats_snapshot()["counters"]["service.deduplicated"] == 1
            # Only one execution happened; both slots carry its result.
            assert service.stats_snapshot()["counters"]["service.executed"] == 1

    def test_duplicates_report_the_dedup_route(self, tmp_path):
        with _service(tmp_path, serial=True) as service:
            job = service.submit([_request(), _request(protocol="fcfs"), _request()])
            job.wait(60)
            assert [outcome.route for outcome in job.outcomes] == ["lanes", "lanes", "dedup"]
            assert job.outcomes[2].cache_key == job.outcomes[0].cache_key
            assert service.stats.deduplicated == 1

    def test_each_request_is_hashed_once(self, tmp_path):
        hashed = []

        class CountingRequest(RunRequest):
            def cache_key(self):
                hashed.append(self.protocol)
                return super().cache_key()

        requests = [
            CountingRequest(request.scenario, request.protocol, request.settings)
            for request in (_request(), _request(protocol="fcfs"), _request())
        ]
        with _service(tmp_path, serial=True) as service:
            service.submit(requests).wait(60)
            service.submit(requests[:1]).wait(60)  # a cache hit
        assert len(hashed) == 4

    def test_empty_job_is_done_immediately(self, tmp_path):
        with _service(tmp_path, serial=True) as service:
            job = service.submit([])
            assert job.state == "done"
            assert job.results() == []

    def test_results_byte_identical_to_direct_session(self, tmp_path):
        requests = [_request(protocol="rr"), _request(protocol="fcfs")]
        with _service(tmp_path, serial=True) as service:
            job = service.submit(list(requests))
            job.wait(60)
            served = job.results()
        direct = [
            outcome.result for outcome in Session().run_requests(list(requests))
        ]
        assert [pickle.dumps(a) for a in served] == [pickle.dumps(b) for b in direct]


class TestBackpressureAndBudgets:
    def test_full_queue_rejects_with_retry_after(self):
        service = _service(queue_limit=1, serial=True)
        # Stuff the queue directly so the dispatcher (never started)
        # cannot drain it under the test.
        service.admission.offer(Job("blocker", [_request()]))
        job = service.submit([_request(seed=99)])
        assert job.state == "rejected"
        assert job.retry_after is not None and job.retry_after > 0
        assert "queue full" in job.error
        service.close(drain=False)

    def test_cell_budget_rejects_before_queueing(self, tmp_path):
        with _service(tmp_path, serial=True, default_max_cells=1) as service:
            job = service.submit([_request(seed=1), _request(seed=2)])
            assert job.state == "rejected"
            assert "max_cells" in job.error
            assert service.stats_snapshot()["counters"]["service.rejected"] == 1

    def test_rejected_jobs_never_reach_the_queue(self, tmp_path):
        with _service(tmp_path, serial=True, default_max_cells=1) as service:
            service.submit([_request(seed=1), _request(seed=2)])
            assert len(service.admission) == 0


class TestDeadlines:
    def test_zero_deadline_expires_at_dispatch(self, tmp_path):
        with _service(tmp_path, serial=True) as service:
            job = service.submit([_request()], deadline=0.0)
            assert job.wait(30)
            assert job.state == "timeout"
            assert "deadline expired" in job.error
            counters = service.stats_snapshot()["counters"]
            assert counters["service.deadline_exceeded"] == 1

    def test_deadline_survivors_unaffected_in_the_same_gather(self, tmp_path):
        with _service(tmp_path, serial=True) as service:
            doomed = service.submit([_request(seed=1)], deadline=0.0)
            healthy = service.submit([_request(seed=2)])
            assert doomed.wait(30) and healthy.wait(60)
            assert doomed.state == "timeout"
            assert healthy.state == "done"

    def test_default_deadline_applies_when_job_brings_none(self, tmp_path):
        with _service(tmp_path, serial=True, default_deadline=0.0) as service:
            job = service.submit([_request()])
            job.wait(30)
            assert job.state == "timeout"


@pytest.mark.slow
class TestCrashRecovery:
    def test_worker_crash_is_replayed_and_heals(self, tmp_path):
        with _service(tmp_path, shards=1, workers=1) as service:
            service.pool.arm_kills(1)
            job = service.submit([_request()])
            assert job.wait(60)
            assert job.state == "done"
            assert job.attempts == 1
            counters = service.stats_snapshot()["counters"]
            assert counters["service.crashes"] == 1
            assert counters["service.retried"] == 1
            assert service.pool.respawns == 1

    def test_crashed_replay_matches_untroubled_run_exactly(self, tmp_path):
        with _service(tmp_path, shards=1, workers=1) as service:
            service.pool.arm_kills(1)
            job = service.submit([_request()])
            job.wait(60)
            crashed = job.results()[0]
        clean = Session().run_requests([_request()])[0].result
        assert pickle.dumps(crashed) == pickle.dumps(clean)

    def test_repeated_crash_runs_serially_instead_of_spinning(self, tmp_path):
        with _service(tmp_path, shards=1, workers=1, max_replays=1) as service:
            service.pool.arm_kills(2)  # the replay crashes too
            job = service.submit([_request()])
            assert job.wait(60)
            assert job.state == "done"  # second crash -> in-process serial run
            assert service.pool.crashes == 2

    def test_respawn_budget_exhaustion_degrades_the_pool(self, tmp_path):
        with _service(
            tmp_path, shards=1, workers=1, max_respawns=0, max_replays=5
        ) as service:
            service.pool.arm_kills(1)
            job = service.submit([_request()])
            assert job.wait(60)
            assert job.state == "done"
            assert service.pool.degraded
            counters = service.stats_snapshot()["counters"]
            assert counters["service.degraded"] == 1
            # Later jobs keep completing on the serial path.
            follow_up = service.submit([_request(seed=77)])
            assert follow_up.wait(60)
            assert follow_up.state == "done"

    def test_one_crash_consumes_one_respawn_despite_queued_payloads(self, tmp_path):
        # One dead worker fails every queued future of its shard with
        # BrokenProcessPool at once; shard generations make that cost a
        # single respawn, with the stranded payloads replayed on the
        # replacement pool — so one respawn in the budget is enough.
        with _service(
            tmp_path, shards=1, workers=1, max_respawns=1, max_replays=1
        ) as service:
            service.pool.arm_kills(1)
            # engine="event" routes each cell as its own direct payload,
            # so several futures queue behind the one that kills the pool.
            job = service.submit([_request(seed=s, engine="event") for s in range(4)])
            assert job.wait(60)
            assert job.state == "done", job.error
            assert service.pool.respawns == 1
            assert not service.pool.degraded

    def test_degradation_drops_no_queued_payload(self, tmp_path):
        # Respawn-budget exhaustion degrades the pool while several
        # payloads are still pending across both shards; every one must
        # be drained to the serial path, none silently cancelled.
        with _service(
            tmp_path, shards=2, workers=1, max_respawns=0, max_replays=5
        ) as service:
            service.pool.arm_kills(1)
            job = service.submit([_request(seed=s, engine="event") for s in range(6)])
            assert job.wait(60)
            assert job.state == "done", job.error
            assert service.pool.degraded
        clean = Session().run_requests(
            [_request(seed=s, engine="event") for s in range(6)]
        )
        for mine, theirs in zip(job.outcomes, clean):
            assert pickle.dumps(mine.result) == pickle.dumps(theirs.result)

    def test_degradation_claims_the_futures_it_cancels(self, monkeypatch):
        # Degrading shuts the healthy shard down with cancel_futures, and
        # concurrent.futures.wait never reports a future cancelled that
        # way as done.  The executor only cancels while it is still
        # referenced, which made the wedge a race with its garbage
        # collection; holding every executor makes it reproducible.  Shard 0
        # runs the killed payload, shard 1 a slow one with two queued.
        pool = ShardPool(
            shards=2, workers=1, backoff=FAST, max_respawns=0, max_replays=5
        )
        built = []
        build = pool._pool

        def held(shard):
            built.append(build(shard))
            return built[-1]

        monkeypatch.setattr(pool, "_pool", held)
        pool.arm_kills(1)
        slow = RunRequest(
            equal_load(3, 0.5),
            "rr",
            SimulationSettings(batches=2, batch_size=10000, warmup=5, engine="event"),
        )
        requests = [_request(seed=1, engine="event"), slow] + [
            _request(seed=s, engine="event") for s in (3, 4)
        ]
        keys = ["00000000", "00000001", "00000001", "00000001"]
        outs = []
        runner = threading.Thread(
            target=lambda: outs.append(pool.run_cells(requests, keys)), daemon=True
        )
        runner.start()
        runner.join(60)
        pool.close()
        assert not runner.is_alive(), "run_cells never returned after degrading"
        assert pool.degraded
        clean = Session().run_requests(requests)
        for mine, theirs in zip(outs[0], clean):
            assert pickle.dumps(mine) == pickle.dumps(theirs.result)

    def test_degrading_while_submitting_claims_the_queued_futures(self, monkeypatch):
        # Shard 0 queues every payload it is given (its executor never
        # starts them) and shard 1 cannot build a pool, so the submit
        # loop degrades with shard 0's futures still queued.  Shutting
        # shard 0 down cancels them the way ProcessPoolExecutor does,
        # without waking wait(): nothing is running, so an unclaimed
        # future would block the first wait() forever.
        class Queued:
            def __init__(self):
                self.futures = []

            def submit(self, *args):
                self.futures.append(Future())
                return self.futures[-1]

            def shutdown(self, wait=True, cancel_futures=False):
                for future in self.futures if cancel_futures else ():
                    future.cancel()

        queued = Queued()

        def pool_for(shard):
            if shard == 1:
                raise OSError("no process pool for shard 1")
            return queued

        pool = ShardPool(shards=2, workers=1, backoff=FAST)
        monkeypatch.setattr(pool, "_pool", pool_for)
        requests = [_request(seed=s, engine="event") for s in (1, 2, 3)]
        keys = ["00000000", "00000000", "00000001"]
        outs = []
        runner = threading.Thread(
            target=lambda: outs.append(pool.run_cells(requests, keys)), daemon=True
        )
        runner.start()
        runner.join(60)
        assert not runner.is_alive(), "run_cells never returned after degrading"
        assert pool.degraded and len(queued.futures) == 2
        assert all(future.cancelled() for future in queued.futures)
        clean = Session().run_requests(requests)
        for mine, theirs in zip(outs[0], clean):
            assert pickle.dumps(mine) == pickle.dumps(theirs.result)


class TestFailureDiagnostics:
    def test_failing_cell_fails_the_job_with_cell_failure(self, tmp_path, monkeypatch):
        import repro.session.single as single_module

        def doomed(scenario, protocol, settings):
            raise RuntimeError("deterministic bug")

        monkeypatch.setattr(single_module, "run_cell", doomed)
        with _service(tmp_path, serial=True) as service:
            # engine="event" routes the cell down the direct per-cell
            # path, which is what the patched run_cell intercepts.
            job = service.submit([_request(engine="event")], tag="doomed-job")
            assert job.wait(60)
            assert job.state == "failed"
            assert job.failure is not None
            assert job.failure.protocol == "rr"
            assert "deterministic bug" in job.failure.error
            assert service.stats_snapshot()["counters"]["service.failed"] == 1

    def test_raising_cell_is_retried_once_and_heals(self, tmp_path, monkeypatch):
        import repro.session.single as single_module

        real = single_module.run_cell
        calls = {"n": 0}

        def flaky(scenario, protocol, settings):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient worker loss")
            return real(scenario, protocol, settings)

        monkeypatch.setattr(single_module, "run_cell", flaky)
        with _service(tmp_path, serial=True) as service:
            job = service.submit([_request(engine="event")])
            assert job.wait(60)
            assert job.state == "done"
            assert service.stats.retries == 1
        clean = Session().run_requests([_request(engine="event")])[0].result
        assert pickle.dumps(job.results()[0]) == pickle.dumps(clean)

    def test_failed_lane_pack_demotes_loudly(self, tmp_path, monkeypatch):
        import repro.engine.batch as batch_module

        def explode(cells):
            raise RuntimeError("lane pack exploded")

        monkeypatch.setattr(batch_module, "run_lanes", explode)
        with _service(tmp_path, serial=True) as service:
            with pytest.warns(RuntimeWarning, match="fell back"):
                job = service.submit([_request(protocol="rr"), _request(protocol="fcfs")])
                assert job.wait(60)
            assert job.state == "done"
            assert [outcome.route for outcome in job.outcomes] == ["direct", "direct"]
            assert all(outcome.fallback for outcome in job.outcomes)
            assert service.stats.fallback_cells == 2

    def test_close_without_drain_fails_queued_jobs_terminally(self):
        service = _service(serial=True)
        job = Job("stranded", [_request()])
        service.admission.offer(job)  # dispatcher never started
        service.close(drain=False)
        assert job.state == "failed"
        assert "service stopped" in job.error

    def test_submit_after_close_is_rejected(self, tmp_path):
        service = _service(tmp_path, serial=True)
        service.close()
        job = service.submit([_request()])
        assert job.state == "rejected"
        assert "shutting down" in job.error


class TestRegistryRetention:
    def test_oldest_terminal_jobs_are_evicted_beyond_the_cap(self):
        service = _service(serial=True, job_retention=2)
        try:
            jobs = [service.submit([]) for _ in range(5)]  # empty => done at submit
            assert all(job.state == "done" for job in jobs)
            assert len(service._jobs) <= 2
            with pytest.raises(ServiceError, match="retention"):
                service.job(jobs[0].job_id)
            # Evicted states still count in the aggregate snapshot.
            assert service.stats_snapshot()["jobs"]["done"] == 5
        finally:
            service.close()

    def test_active_jobs_are_never_evicted(self):
        service = _service(serial=True, job_retention=1)
        try:
            stranded = Job("stuck", [_request()])  # queued, never dispatched
            service._jobs[stranded.job_id] = stranded
            for _ in range(3):
                service.submit([])
            assert "stuck" in service._jobs
        finally:
            service.close()

    def test_retention_validation(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(job_retention=0)


class TestExecutorDuckType:
    def test_run_requests_returns_outcomes_in_order(self, tmp_path):
        with _service(tmp_path, serial=True) as service:
            outcomes = service.run_requests(
                [_request(protocol="rr"), _request(protocol="fcfs")]
            )
            assert [outcome.request.protocol for outcome in outcomes] == [
                "rr", "fcfs"
            ]

    def test_simulate_single_run(self, tmp_path):
        with _service(tmp_path, serial=True) as service:
            result = service.simulate(equal_load(3, 0.5), "rr", SETTINGS)
            assert result.utilization > 0

    def test_session_can_front_a_service(self, tmp_path):
        with _service(tmp_path, serial=True) as service:
            session = Session(executor=service)
            session.submit(equal_load(3, 0.5), "rr", SETTINGS)
            session.submit(equal_load(3, 0.5), "rr", SETTINGS)  # dedups in Session
            outcomes = session.gather()
            assert [outcome.route for outcome in outcomes][1] == "dedup"


class TestTelemetry:
    def test_lifecycle_events_stream_as_jsonl(self, tmp_path):
        import json

        path = tmp_path / "events.jsonl"
        cache = ResultCache(tmp_path / "cache")
        config = ServiceConfig(
            serial=True, backoff=FAST, poll_interval=0.02, jsonl_path=str(path)
        )
        with ArbitrationService(cache=cache, config=config) as service:
            done = service.submit([_request()])
            done.wait(60)
            rejected = service.submit(
                [_request(seed=5), _request(seed=7)], max_cells=1
            )
            assert rejected.state == "rejected"
            timed_out = service.submit([_request(seed=6)], deadline=0.0)
            timed_out.wait(60)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        kinds = [line["kind"] for line in lines]
        assert kinds[0] == "admit"
        assert "terminal" in kinds and "deadline" in kinds
        seqs = [line["seq"] for line in lines]
        assert seqs == sorted(seqs)  # stream order is the sequence order

    def test_snapshot_shape(self, tmp_path):
        with _service(tmp_path, serial=True) as service:
            job = service.submit([_request()])
            job.wait(60)
            snapshot = service.stats_snapshot()
        assert snapshot["backlog"] == 0
        assert snapshot["queue_limit"] == 64
        assert snapshot["jobs"] == {"done": 1}
        assert snapshot["pool"]["degraded"] is True  # serial config


class TestConfigValidation:
    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"gather_limit": 0}, "gather_limit must be >= 1"),
            ({"max_replays": -1}, "max_replays must be >= 0"),
            ({"poll_interval": 0.0}, "poll_interval must be > 0"),
            ({"default_deadline": -0.5}, "default_deadline must be >= 0"),
        ],
    )
    def test_invalid_tunables_are_refused(self, overrides, message):
        with pytest.raises(ConfigurationError, match=message):
            ServiceConfig(**overrides)


def _stall_lanes_until_deadline(service):
    """Run lane packs for real, then hold until the job control expires:
    the deadline passes while the plan is executing."""
    run_lanes = service.pool.run_lanes

    def stalled(cells, keys, control):
        results = run_lanes(cells, keys, control)
        while not control.expired:
            time.sleep(0.005)
        return results

    service.pool.run_lanes = stalled


class TestDeadlinesDuringExecution:
    def test_deadline_passing_mid_plan_cancels_the_rest(self, tmp_path):
        with _service(tmp_path, serial=True) as service:
            _stall_lanes_until_deadline(service)
            lane = _request(seed=21)
            direct = _request(seed=22, engine="event")
            job = service.submit([lane, direct], deadline=1.0)
            assert job.wait(30)
        assert job.state == "timeout"
        assert "deadline expired" in job.error
        # The lane cell ran (and was cached); the direct cell never started.
        assert service.stats.executed == 1
        assert service.stats_snapshot()["counters"]["service.deadline_exceeded"] == 1

    def test_deadline_passing_after_the_last_cell_still_times_out(self, tmp_path):
        with _service(tmp_path, serial=True) as service:
            _stall_lanes_until_deadline(service)
            job = service.submit([_request(seed=23)], deadline=1.0)
            assert job.wait(30)
        assert job.state == "timeout"
        assert job.outcomes is None
        assert service.stats.executed == 1


class TestEdgePaths:
    def test_single_request_submits_as_a_one_cell_job(self, tmp_path):
        with _service(tmp_path, serial=True) as service:
            job = service.submit(_request(seed=31))
            assert job.cells == 1
            assert job.wait(60) and job.state == "done"

    def test_run_requests_turns_the_control_into_a_deadline(self, tmp_path):
        with _service(tmp_path, serial=True) as service:
            outcomes = service.run_requests([_request(seed=32)], control=RunControl.after(60.0))
            assert [outcome.request.settings.seed for outcome in outcomes] == [32]
            job = service.job("job-000001")
            assert job.budget.deadline is not None and 0.0 < job.budget.deadline <= 60.0

    def test_run_requests_raises_unless_the_job_is_done(self, tmp_path):
        with _service(tmp_path, serial=True) as service:
            with pytest.raises(ServiceError, match="finished 'timeout': deadline expired"):
                service.run_requests([_request(seed=33)], control=RunControl.after(-1.0))

    def test_a_raising_sink_never_perturbs_the_service(self, tmp_path):
        class BrokenSink:
            def __init__(self):
                self.calls = 0

            def emit(self, event):
                self.calls += 1
                raise OSError("disk full")

            def close(self):
                pass

        sink = BrokenSink()
        cache = ResultCache(tmp_path / "cache")
        config = ServiceConfig(serial=True, backoff=FAST, poll_interval=0.02)
        with ArbitrationService(cache=cache, config=config, sink=sink) as service:
            job = service.submit([_request(seed=34)])
            assert job.wait(60)
        assert job.state == "done"
        assert sink.calls >= 3  # admit, dispatch, terminal

    def test_internal_dispatch_failure_fails_the_gather_loudly(self, tmp_path):
        with _service(tmp_path, serial=True) as service:
            def broken(live):
                raise RuntimeError("planner exploded")

            service._execute = broken
            job = service.submit([_request(seed=35)])
            assert job.wait(30)
            # The dispatcher survives and serves the next job.
            del service._execute
            healthy = service.submit([_request(seed=36)])
            assert healthy.wait(60)
        assert job.state == "failed"
        assert job.error == "internal dispatch failure (RuntimeError: planner exploded)"
        assert healthy.state == "done"

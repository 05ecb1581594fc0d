"""The shared retry-pacing vocabulary: deterministic jittered backoff.

One :class:`~repro.service.backoff.BackoffPolicy` paces every retry in
the repository — a session's per-cell retry, the service's shard
respawns and payload replays.  The properties pinned here are the
ones those layers rely on:

- **deterministic**: the jitter derives from ``(seed, token, attempt)``
  by hashing, so two processes with the same policy compute identical
  delays — a retry schedule is reproducible like everything else;
- **full jitter**: every delay lands in ``[(1 - jitter) * d, d]`` where
  ``d`` is the capped exponential envelope, so herds spread without any
  delay collapsing to zero;
- **capped**: the envelope never exceeds ``cap`` however many attempts.
"""

import pytest

from repro.errors import ConfigurationError
from repro.service.backoff import BackoffPolicy


class TestDelaySchedule:
    def test_deterministic_across_instances(self):
        a = BackoffPolicy(seed=7)
        b = BackoffPolicy(seed=7)
        for attempt in range(6):
            assert a.delay(attempt, token="cell-3") == b.delay(attempt, token="cell-3")

    def test_seed_token_and_attempt_all_separate_schedules(self):
        base = BackoffPolicy(seed=1).delay(2, token="t")
        assert BackoffPolicy(seed=2).delay(2, token="t") != base
        assert BackoffPolicy(seed=1).delay(2, token="u") != base
        assert BackoffPolicy(seed=1).delay(3, token="t") != base

    def test_full_jitter_bounds(self):
        policy = BackoffPolicy(base=0.1, cap=10.0, multiplier=2.0, jitter=0.5)
        for attempt in range(8):
            envelope = min(policy.cap, policy.base * policy.multiplier**attempt)
            for token in ("a", "b", "c"):
                delay = policy.delay(attempt, token=token)
                assert (1.0 - policy.jitter) * envelope <= delay <= envelope

    def test_envelope_grows_then_caps(self):
        policy = BackoffPolicy(base=0.05, cap=0.4, multiplier=2.0, jitter=0.0)
        delays = [policy.delay(attempt) for attempt in range(6)]
        assert delays[:4] == [0.05, 0.1, 0.2, 0.4]
        assert delays[4:] == [0.4, 0.4]  # capped, not growing

    def test_zero_jitter_is_exactly_the_envelope(self):
        policy = BackoffPolicy(base=0.125, jitter=0.0)
        assert policy.delay(0) == 0.125
        assert policy.delay(1) == 0.25

    def test_none_policy_never_waits(self):
        policy = BackoffPolicy.none()
        assert all(policy.delay(attempt) == 0.0 for attempt in range(5))
        policy.sleep(3, token="free")  # returns immediately


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"base": -0.1},
            {"cap": -1.0},
            {"multiplier": 0.5},
            {"jitter": -0.1},
            {"jitter": 1.5},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            BackoffPolicy(**kwargs)


class TestSweepIntegration:
    def test_sweep_retry_policy_is_a_backoff_policy(self):
        from repro.service.shards import ShardPool

        # A session's per-cell pools pace retries with the default policy.
        assert ShardPool.in_process().backoff == BackoffPolicy()
        for token in ("flaky", "0", "probe-cell"):
            # A single in-process retry stays snappy.
            assert BackoffPolicy().delay(0, token) <= 0.05

    def test_sweep_retry_sleeps_through_the_policy(self, monkeypatch):
        import repro.session.single as single_module
        from repro.experiments.runner import SimulationSettings
        from repro.session import RunRequest, Session
        from repro.workload.scenarios import equal_load

        real = single_module.run_cell
        calls = {"n": 0}

        def flaky(scenario, protocol, settings):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient worker loss")
            return real(scenario, protocol, settings)

        monkeypatch.setattr(single_module, "run_cell", flaky)
        slept = []
        monkeypatch.setattr(
            BackoffPolicy, "sleep", lambda self, attempt, token="": slept.append(
                self.delay(attempt, token)
            )
        )
        session = Session(jobs=1)
        settings = SimulationSettings(batches=2, batch_size=20, seed=5, engine="event")
        session.run_requests([RunRequest(equal_load(3, 0.5), "rr", settings, tag="flaky")])
        assert session.stats.retries == 1
        assert slept == [BackoffPolicy().delay(0, "flaky")]

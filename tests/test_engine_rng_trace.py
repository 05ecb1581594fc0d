"""Unit tests for repro.engine.rng."""

from repro.engine.rng import RandomStreams, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "agent/1") == derive_seed(42, "agent/1")

    def test_differs_by_name(self):
        assert derive_seed(42, "agent/1") != derive_seed(42, "agent/2")

    def test_differs_by_master(self):
        assert derive_seed(1, "agent/1") != derive_seed(2, "agent/1")

    def test_64_bit_range(self):
        seed = derive_seed(7, "x")
        assert 0 <= seed < 2**64


class TestRandomStreams:
    def test_same_name_returns_same_generator(self):
        streams = RandomStreams(1)
        assert streams.stream("a") is streams.stream("a")

    def test_reproducible_across_instances(self):
        first = RandomStreams(99).stream("agent/3").random()
        second = RandomStreams(99).stream("agent/3").random()
        assert first == second

    def test_streams_are_independent(self):
        streams = RandomStreams(5)
        a = [streams.stream("a").random() for _ in range(5)]
        b = [streams.stream("b").random() for _ in range(5)]
        assert a != b

    def test_adding_stream_does_not_perturb_existing(self):
        solo = RandomStreams(3)
        seq_before = [solo.agent_stream(1).random() for _ in range(5)]
        both = RandomStreams(3)
        both.agent_stream(2)  # created first, must not matter
        seq_after = [both.agent_stream(1).random() for _ in range(5)]
        assert seq_before == seq_after

    def test_agent_stream_shortcut(self):
        streams = RandomStreams(1)
        assert streams.agent_stream(4) is streams.stream("agent/4")

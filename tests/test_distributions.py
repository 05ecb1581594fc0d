"""Tests for the inter-request time distributions."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.workload.distributions import (
    Deterministic,
    Erlang,
    Exponential,
    Hyperexponential,
    from_mean_cv,
)


def _sample_stats(dist, n=20000, seed=9):
    rng = random.Random(seed)
    samples = [dist.sample(rng) for _ in range(n)]
    mean = sum(samples) / n
    var = sum((x - mean) ** 2 for x in samples) / n
    return mean, math.sqrt(var)


class TestDeterministic:
    def test_constant_samples(self):
        dist = Deterministic(3.5)
        rng = random.Random(0)
        assert [dist.sample(rng) for _ in range(3)] == [3.5, 3.5, 3.5]

    def test_mean_and_cv(self):
        assert Deterministic(3.5).mean == 3.5
        assert Deterministic(3.5).cv == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            Deterministic(-1.0)

    def test_zero_allowed(self):
        assert Deterministic(0.0).mean == 0.0


class TestExponential:
    def test_declared_moments(self):
        dist = Exponential(4.0)
        assert dist.mean == 4.0
        assert dist.cv == 1.0

    def test_sample_moments_match(self):
        mean, std = _sample_stats(Exponential(4.0))
        assert mean == pytest.approx(4.0, rel=0.05)
        assert std == pytest.approx(4.0, rel=0.05)

    def test_non_positive_mean_rejected(self):
        with pytest.raises(ConfigurationError):
            Exponential(0.0)

    def test_samples_non_negative(self):
        dist = Exponential(1.0)
        rng = random.Random(1)
        assert all(dist.sample(rng) >= 0 for _ in range(1000))

    def test_survival(self):
        dist = Exponential(2.0)
        assert dist.survival(-1.0) == dist.survival(0.0) == 1.0
        assert dist.survival(2.0) == pytest.approx(math.exp(-1.0))


class TestErlang:
    def test_declared_cv(self):
        assert Erlang(2.0, 4).cv == pytest.approx(0.5)
        assert Erlang(2.0, 16).cv == pytest.approx(0.25)

    def test_sample_moments_match(self):
        mean, std = _sample_stats(Erlang(6.0, 9))
        assert mean == pytest.approx(6.0, rel=0.05)
        assert std == pytest.approx(2.0, rel=0.08)  # cv = 1/3

    def test_shape_one_is_exponential(self):
        mean, std = _sample_stats(Erlang(3.0, 1))
        assert std == pytest.approx(3.0, rel=0.06)

    def test_invalid_shape(self):
        with pytest.raises(ConfigurationError):
            Erlang(1.0, 0)

    def test_non_positive_mean_rejected(self):
        with pytest.raises(ConfigurationError):
            Erlang(0.0, 2)

    def test_survival_is_the_truncated_poisson_sum(self):
        # Erlang-2 with phase rate 1: P(X > x) = e^-x (1 + x).
        dist = Erlang(2.0, 2)
        assert dist.survival(0.0) == 1.0
        assert dist.survival(1.5) == pytest.approx(math.exp(-1.5) * 2.5)
        assert Erlang(3.0, 1).survival(3.0) == pytest.approx(Exponential(3.0).survival(3.0))

    def test_survival_matches_the_empirical_tail(self):
        dist = Erlang(6.0, 9)
        rng = random.Random(4)
        samples = [dist.sample(rng) for _ in range(20000)]
        for x in (4.0, 6.0, 9.0):
            empirical = sum(1 for value in samples if value > x) / len(samples)
            assert dist.survival(x) == pytest.approx(empirical, abs=0.015)


class TestHyperexponential:
    def test_declared_moments(self):
        dist = Hyperexponential(5.0, 2.0)
        assert dist.mean == 5.0
        assert dist.cv == 2.0

    def test_sample_moments_match(self):
        mean, std = _sample_stats(Hyperexponential(5.0, 2.0), n=60000)
        assert mean == pytest.approx(5.0, rel=0.06)
        assert std == pytest.approx(10.0, rel=0.1)

    def test_cv_below_one_rejected(self):
        with pytest.raises(ConfigurationError):
            Hyperexponential(5.0, 0.8)

    def test_non_positive_mean_rejected(self):
        with pytest.raises(ConfigurationError):
            Hyperexponential(0.0, 2.0)

    def test_survival_matches_the_empirical_tail(self):
        dist = Hyperexponential(5.0, 2.0)
        assert dist.survival(0.0) == 1.0
        rng = random.Random(5)
        samples = [dist.sample(rng) for _ in range(40000)]
        for x in (1.0, 5.0, 20.0):
            empirical = sum(1 for value in samples if value > x) / len(samples)
            assert dist.survival(x) == pytest.approx(empirical, abs=0.01)


class TestFromMeanCV:
    def test_cv_zero_is_deterministic(self):
        assert isinstance(from_mean_cv(2.0, 0.0), Deterministic)

    def test_cv_one_is_exponential(self):
        assert isinstance(from_mean_cv(2.0, 1.0), Exponential)

    def test_intermediate_cv_is_erlang(self):
        dist = from_mean_cv(2.0, 0.5)
        assert isinstance(dist, Erlang)
        assert dist.shape == 4

    @pytest.mark.parametrize("cv,shape", [(0.25, 16), (0.33, 9), (0.5, 4)])
    def test_paper_cv_values_map_to_shapes(self, cv, shape):
        assert from_mean_cv(1.0, cv).shape == shape

    def test_cv_above_one_is_hyperexponential(self):
        assert isinstance(from_mean_cv(2.0, 1.5), Hyperexponential)

    def test_zero_mean_is_deterministic_zero(self):
        dist = from_mean_cv(0.0, 0.5)
        assert isinstance(dist, Deterministic)
        assert dist.mean == 0.0

    def test_negative_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            from_mean_cv(-1.0, 0.5)
        with pytest.raises(ConfigurationError):
            from_mean_cv(1.0, -0.5)

    @given(
        st.floats(min_value=0.1, max_value=50.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_declared_mean_always_requested(self, mean, cv):
        assert from_mean_cv(mean, cv).mean == pytest.approx(mean)

    @given(
        st.floats(min_value=0.1, max_value=50.0),
        st.floats(min_value=0.05, max_value=1.0),
    )
    def test_achieved_cv_is_nearest_erlang(self, mean, cv):
        dist = from_mean_cv(mean, cv)
        # The realised CV is 1/sqrt(k) for the nearest integer k: within
        # a factor of the rounding granularity of the request.
        assert dist.cv == pytest.approx(cv, rel=0.35)

    @given(st.integers(min_value=0, max_value=2**32), st.floats(0.1, 10.0))
    def test_samples_are_non_negative(self, seed, mean):
        dist = from_mean_cv(mean, 0.5)
        assert dist.sample(random.Random(seed)) >= 0.0

"""Tests for the random-variate distributions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.distributions import (
    Deterministic,
    Empirical,
    Erlang,
    Exponential,
    HyperExponential,
    Uniform,
)


class TestExponential:
    def test_rejects_non_positive_rate(self):
        with pytest.raises(ValueError):
            Exponential(0.0)
        with pytest.raises(ValueError):
            Exponential(-1.0)

    def test_rejects_infinite_rate(self):
        with pytest.raises(ValueError):
            Exponential(float("inf"))

    def test_mean_and_rate_are_inverses(self):
        dist = Exponential(4.0)
        assert dist.mean == pytest.approx(0.25)
        assert dist.rate == pytest.approx(4.0)

    def test_from_mean(self):
        assert Exponential.from_mean(0.5).rate == pytest.approx(2.0)

    def test_from_mean_rejects_non_positive(self):
        with pytest.raises(ValueError):
            Exponential.from_mean(0.0)

    def test_sample_mean_converges(self, rng):
        dist = Exponential(2.0)
        samples = dist.sample_many(rng, 100_000)
        assert samples.mean() == pytest.approx(0.5, rel=0.02)

    def test_samples_are_non_negative(self, rng):
        assert np.all(Exponential(1.0).sample_many(rng, 1000) >= 0)

    def test_sample_many_draws_what_repeated_samples_draw(self):
        dist = Exponential.from_mean(2.5)
        one_by_one = np.random.default_rng(3)
        at_once = np.random.default_rng(3)
        expected = [dist.sample(one_by_one) for _ in range(200)]
        assert dist.sample_many(at_once, 200).tolist() == expected
        assert at_once.random() == one_by_one.random()

    def test_single_sample_is_float(self, rng):
        assert isinstance(Exponential(1.0).sample(rng), float)

    def test_memorylessness_statistically(self, rng):
        """P(X > s + t | X > s) ≈ P(X > t) for the exponential law."""
        dist = Exponential(1.0)
        samples = dist.sample_many(rng, 150_000)
        s, t = 0.7, 0.9
        conditional = np.mean(samples[samples > s] > s + t)
        unconditional = np.mean(samples > t)
        assert conditional == pytest.approx(unconditional, abs=0.01)


class TestDeterministic:
    def test_always_returns_value(self, rng):
        dist = Deterministic(3.5)
        assert dist.sample(rng) == 3.5
        assert np.all(dist.sample_many(rng, 10) == 3.5)

    def test_mean_equals_value(self):
        assert Deterministic(2.0).mean == 2.0

    def test_zero_value_has_infinite_rate(self):
        assert Deterministic(0.0).rate == float("inf")

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Deterministic(-1.0)


class TestErlang:
    def test_mean_is_shape_over_rate(self):
        assert Erlang(shape=4, rate_=2.0).mean == pytest.approx(2.0)

    def test_rejects_invalid_parameters(self):
        with pytest.raises(ValueError):
            Erlang(shape=0, rate_=1.0)
        with pytest.raises(ValueError):
            Erlang(shape=2, rate_=0.0)

    def test_sample_mean_converges(self, rng):
        dist = Erlang(shape=5, rate_=2.0)
        assert dist.sample_many(rng, 100_000).mean() == pytest.approx(2.5, rel=0.03)

    def test_erlang_variance_below_exponential_with_same_mean(self, rng):
        erlang = Erlang(shape=10, rate_=10.0)   # mean 1
        exponential = Exponential(1.0)          # mean 1
        assert erlang.sample_many(rng, 50_000).var() < exponential.sample_many(
            rng, 50_000
        ).var()


class TestUniform:
    def test_mean(self):
        assert Uniform(1.0, 3.0).mean == pytest.approx(2.0)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Uniform(3.0, 1.0)
        with pytest.raises(ValueError):
            Uniform(-1.0, 2.0)

    def test_samples_within_bounds(self, rng):
        samples = Uniform(0.5, 1.5).sample_many(rng, 1000)
        assert np.all((samples >= 0.5) & (samples <= 1.5))


class TestHyperExponential:
    def test_mean_is_mixture_of_means(self):
        dist = HyperExponential(rates=(1.0, 2.0), probabilities=(0.5, 0.5))
        assert dist.mean == pytest.approx(0.5 * 1.0 + 0.5 * 0.5)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            HyperExponential(rates=(1.0,), probabilities=(0.5, 0.5))

    def test_rejects_probabilities_not_summing_to_one(self):
        with pytest.raises(ValueError):
            HyperExponential(rates=(1.0, 2.0), probabilities=(0.7, 0.5))

    def test_rejects_non_positive_rates(self):
        with pytest.raises(ValueError):
            HyperExponential(rates=(1.0, 0.0), probabilities=(0.5, 0.5))

    def test_sample_mean_converges(self, rng):
        dist = HyperExponential(rates=(1.0, 4.0), probabilities=(0.3, 0.7))
        assert dist.sample_many(rng, 200_000).mean() == pytest.approx(dist.mean, rel=0.03)


class TestEmpirical:
    def test_requires_samples(self):
        with pytest.raises(ValueError):
            Empirical([])

    def test_rejects_negative_samples(self):
        with pytest.raises(ValueError):
            Empirical([1.0, -0.5])

    def test_mean_matches_sample_mean(self):
        assert Empirical([1.0, 2.0, 3.0]).mean == pytest.approx(2.0)

    def test_resamples_only_observed_values(self, rng):
        dist = Empirical([1.0, 2.0, 4.0])
        draws = dist.sample_many(rng, 500)
        assert set(np.unique(draws)).issubset({1.0, 2.0, 4.0})

    def test_samples_view_is_read_only(self):
        dist = Empirical([1.0, 2.0])
        with pytest.raises(ValueError):
            dist.samples[0] = 10.0


class TestPropertyBased:
    @given(rate=st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=50, deadline=None)
    def test_exponential_mean_rate_roundtrip(self, rate):
        dist = Exponential(rate)
        assert dist.rate == pytest.approx(1.0 / dist.mean)

    @given(
        rate=st.floats(min_value=0.05, max_value=50.0),
        n=st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=30, deadline=None)
    def test_samples_always_non_negative(self, rate, n):
        rng = np.random.default_rng(0)
        assert np.all(Exponential(rate).sample_many(rng, n) >= 0.0)

    @given(
        shape=st.integers(min_value=1, max_value=50),
        rate=st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_erlang_mean_formula(self, shape, rate):
        assert Erlang(shape, rate).mean == pytest.approx(shape / rate)

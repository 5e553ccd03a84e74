"""Tests for Monte-Carlo summary statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.montecarlo.statistics import (
    SummaryStatistics,
    _t_critical,
    empirical_cdf,
    evaluate_empirical_cdf,
    summarize,
)


class TestSummarize:
    def test_basic_summary(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0])
        assert summary.n == 4
        assert summary.mean == pytest.approx(2.5)
        assert summary.minimum == 1.0
        assert summary.maximum == 4.0
        assert summary.ci_low < summary.mean < summary.ci_high

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_invalid_confidence_level(self):
        with pytest.raises(ValueError):
            summarize([1.0], confidence_level=1.0)

    def test_single_observation(self):
        summary = summarize([5.0])
        assert summary.mean == 5.0
        assert summary.std == 0.0
        assert summary.half_width == 0.0

    def test_interval_width_shrinks_with_samples(self):
        rng = np.random.default_rng(0)
        small = summarize(rng.normal(size=20))
        large = summarize(rng.normal(size=2000))
        assert large.half_width < small.half_width

    def test_contains_helper(self):
        summary = summarize([1.0, 2.0, 3.0])
        assert summary.contains(summary.mean)
        assert not summary.contains(100.0)

    def test_coverage_of_true_mean(self):
        """A 95 % interval over repeated experiments should cover ~95 % of the time."""
        rng = np.random.default_rng(1)
        covered = 0
        trials = 200
        for _ in range(trials):
            sample = rng.exponential(2.0, size=40)
            if summarize(sample).contains(2.0):
                covered += 1
        assert 0.88 <= covered / trials <= 0.99

    @pytest.mark.parametrize("level", [0.5, 0.9, 0.95, 0.99])
    def test_t_critical_is_scipy_stats_t_ppf_bit_for_bit(self, level):
        # The library computes the quantile without importing scipy.stats;
        # the test holds it to the value scipy.stats has always returned.
        from scipy import stats

        df = np.arange(1, 3003)
        expected = stats.t.ppf(0.5 + level / 2, df)
        got = np.array([_t_critical(level, int(d) + 1) for d in df])
        assert np.array_equal(got, expected)

    @given(values=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_mean_within_min_max(self, values):
        summary = summarize(values)
        assert summary.minimum - 1e-9 <= summary.mean <= summary.maximum + 1e-9


class TestEmpiricalCDF:
    def test_sorted_output(self):
        xs, ps = empirical_cdf([3.0, 1.0, 2.0])
        assert list(xs) == [1.0, 2.0, 3.0]
        assert list(ps) == pytest.approx([1 / 3, 2 / 3, 1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_cdf([])

    def test_evaluate_on_grid(self):
        values = [1.0, 2.0, 3.0, 4.0]
        grid = [0.5, 1.0, 2.5, 10.0]
        assert list(evaluate_empirical_cdf(values, grid)) == [0.0, 0.25, 0.5, 1.0]

    def test_evaluate_empty_rejected(self):
        with pytest.raises(ValueError):
            evaluate_empirical_cdf([], [1.0])

    @given(values=st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_cdf_is_monotone_and_ends_at_one(self, values):
        xs, ps = empirical_cdf(values)
        assert np.all(np.diff(ps) >= 0)
        assert ps[-1] == pytest.approx(1.0)

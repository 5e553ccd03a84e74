"""Tests for delay sweeps and policy comparisons."""

import numpy as np
import pytest

from repro.core.policies import LBP1, LBP2, NoBalancing
from repro.montecarlo.sweep import DelaySweepResult, compare_policies, delay_sweep


class TestDelaySweep:
    def test_crossover_detection(self, fast_params):
        result = DelaySweepResult(
            delays=np.array([0.1, 1.0, 2.0]),
            lbp1_means=np.array([10.0, 11.0, 12.0]),
            lbp2_means=np.array([9.0, 11.5, 14.0]),
        )
        assert result.crossover_delay == 1.0

    def test_no_crossover_returns_none(self):
        result = DelaySweepResult(
            delays=np.array([0.1, 1.0]),
            lbp1_means=np.array([10.0, 11.0]),
            lbp2_means=np.array([9.0, 10.5]),
        )
        assert result.crossover_delay is None

    def test_rows(self):
        result = DelaySweepResult(
            delays=np.array([0.1]),
            lbp1_means=np.array([10.0]),
            lbp2_means=np.array([9.0]),
            lbp1_theory=np.array([10.2]),
        )
        rows = result.as_rows()
        assert rows[0]["delay_per_task"] == 0.1
        assert rows[0]["lbp1_theory"] == 10.2

    def test_end_to_end_small(self, fast_params):
        result = delay_sweep(
            fast_params,
            (30, 5),
            delays_per_task=[0.005, 0.2],
            num_realisations=40,
            seed=2,
        )
        assert len(result.lbp1_means) == 2
        assert np.all(result.lbp1_means > 0)
        assert np.all(result.lbp2_means > 0)
        # Larger delays cannot make either policy faster.
        assert result.lbp1_means[1] >= result.lbp1_means[0] - 0.5
        assert result.lbp2_means[1] >= result.lbp2_means[0] - 0.5

    def test_pooled_sweep_runs_on_the_warm_pool_and_matches_serial(self, fast_params):
        from repro.distributed import executors

        executors.close_shared_pools()
        kwargs = dict(delays_per_task=[0.005, 0.2], num_realisations=8, seed=2)
        serial = delay_sweep(fast_params, (30, 5), **kwargs)
        pooled = delay_sweep(fast_params, (30, 5), workers=2, **kwargs)
        assert set(executors._SHARED_POOLS) == {2}
        assert executors._SHARED_POOLS[2]._pool is not None  # used, left running
        np.testing.assert_array_equal(pooled.lbp1_means, serial.lbp1_means)
        np.testing.assert_array_equal(pooled.lbp2_means, serial.lbp2_means)


class TestComparePolicies:
    def test_returns_one_estimate_per_policy(self, fast_params):
        estimates = compare_policies(
            fast_params,
            (30, 5),
            [NoBalancing(), LBP1(0.5), LBP2(1.0)],
            num_realisations=30,
            seed=0,
        )
        assert set(estimates) == {"no-balancing", "LBP-1", "LBP-2"}

    def test_duplicate_names_uniquified(self, fast_params):
        estimates = compare_policies(
            fast_params, (20, 5), [LBP1(0.3), LBP1(0.9)], num_realisations=10, seed=0
        )
        assert len(estimates) == 2

    def test_unseeded_policies_share_their_random_numbers(self, paper_params):
        twins = [LBP1(0.35, sender=0, receiver=1), LBP1(0.35, sender=0, receiver=1)]
        estimates = compare_policies(
            paper_params, (10, 6), twins, num_realisations=4, seed=None
        )
        np.testing.assert_array_equal(
            estimates["LBP-1"].completion_times,
            estimates["LBP-1#1"].completion_times,
        )

    def test_balancing_beats_no_balancing_for_skewed_load(self, fast_params):
        estimates = compare_policies(
            fast_params, (60, 0), [NoBalancing(), LBP1(0.6)], num_realisations=60, seed=1
        )
        assert (
            estimates["LBP-1"].mean_completion_time
            < estimates["no-balancing"].mean_completion_time
        )

"""Tests for optimal-gain and sender/receiver selection."""

import numpy as np
import pytest

from repro.core.optimize import (
    GainOptimizationResult,
    default_gain_grid,
    optimal_gain_lbp1,
    optimal_gain_lbp2_initial,
    optimal_gain_no_failure,
    optimal_lbp1_policy,
    optimal_lbp2_policy,
)
from repro.core.policies import LBP1, LBP2
from repro.scenarios import registry


class TestGainGrid:
    def test_default_grid_matches_paper(self):
        grid = default_gain_grid()
        assert grid[0] == 0.0 and grid[-1] == 1.0
        assert len(grid) == 21
        assert np.allclose(np.diff(grid), 0.05)

    def test_custom_step(self):
        assert len(default_gain_grid(0.1)) == 11

    def test_invalid_step_rejected(self):
        with pytest.raises(ValueError):
            default_gain_grid(0.0)


class TestOptimalGainLBP1:
    def test_paper_headline_result(self, paper_params):
        result = optimal_gain_lbp1(paper_params, (100, 60))
        assert result.optimal_gain == pytest.approx(0.35)
        assert result.sender == 0 and result.receiver == 1
        assert result.optimal_mean == pytest.approx(117.0, rel=0.03)
        assert result.transfer_size == 35

    def test_no_failure_headline_result(self, paper_params):
        result = optimal_gain_no_failure(paper_params, (100, 60))
        assert result.optimal_gain == pytest.approx(0.45)

    def test_sender_selection_follows_larger_workload(self, paper_params):
        """The paper: 'if the initial load of node 1 is smaller ... node 2 sends'."""
        forward = optimal_gain_lbp1(paper_params, (200, 100))
        reversed_ = optimal_gain_lbp1(paper_params, (100, 200))
        assert forward.sender == 0
        assert reversed_.sender == 1

    def test_explicit_pair_respected(self, paper_params):
        result = optimal_gain_lbp1(paper_params, (100, 60), sender=1, receiver=0)
        assert result.sender == 1

    def test_gains_validation(self, paper_params):
        with pytest.raises(ValueError):
            optimal_gain_lbp1(paper_params, (10, 10), gains=[0.5, 1.2])
        with pytest.raises(ValueError):
            optimal_gain_lbp1(paper_params, (10, 10), gains=[])

    def test_result_arrays_consistent(self, paper_params):
        result = optimal_gain_lbp1(paper_params, (60, 30), gains=[0.0, 0.25, 0.5])
        assert isinstance(result, GainOptimizationResult)
        assert len(result.gains) == len(result.means) == 3
        assert result.optimal_mean == pytest.approx(result.means.min())
        assert result.optimal_gain in result.gains

    def test_mirrored_workloads_reach_the_same_optimum(self, paper_params):
        """Table 1 shows identical predicted times for (200,100) and (100,200).

        The mirrored workload sends from the other (faster) node, so its
        optimal *gain* differs, but the achievable mean completion time is
        the same to within the rounding the paper reports.
        """
        forward = optimal_gain_lbp1(paper_params, (200, 100))
        backward = optimal_gain_lbp1(paper_params, (100, 200))
        assert forward.sender == 0 and backward.sender == 1
        assert forward.optimal_mean == pytest.approx(backward.optimal_mean, rel=1e-3)

    def test_optimum_beats_every_other_grid_point(self, paper_params):
        result = optimal_gain_lbp1(paper_params, (100, 60))
        assert np.all(result.optimal_mean <= result.means + 1e-12)

    def test_shared_solver_reuse(self, paper_params):
        from repro.core.completion_time import CompletionTimeSolver

        solver = CompletionTimeSolver(paper_params)
        first = optimal_gain_lbp1(paper_params, (100, 60), solver=solver)
        second = optimal_gain_lbp1(paper_params, (60, 100), solver=solver)
        assert first.optimal_mean == pytest.approx(second.optimal_mean)


class TestOptimalGainLBP2Initial:
    def test_two_node_only(self, three_node_params):
        with pytest.raises(ValueError):
            optimal_gain_lbp2_initial(three_node_params, (10, 10, 10))

    def test_small_delay_prefers_large_gain(self, paper_params):
        """At 0.02 s/task the no-failure optimum for (200, 50) is K = 1 (Table 2)."""
        result = optimal_gain_lbp2_initial(paper_params, (200, 50))
        assert result.optimal_gain >= 0.9

    def test_large_delay_attenuates_gain(self, paper_params):
        slow = paper_params.with_delay_per_task(2.0)
        result = optimal_gain_lbp2_initial(slow, (200, 50))
        assert result.optimal_gain < optimal_gain_lbp2_initial(
            paper_params, (200, 50)
        ).optimal_gain

    def test_sender_is_overloaded_node(self, paper_params):
        assert optimal_gain_lbp2_initial(paper_params, (100, 60)).sender == 0
        assert optimal_gain_lbp2_initial(paper_params, (50, 200)).sender == 1

    def test_gain_validation(self, paper_params):
        with pytest.raises(ValueError):
            optimal_gain_lbp2_initial(paper_params, (10, 10), gains=[2.0])


class TestPolicyFactories:
    def test_optimal_lbp1_policy(self, paper_params):
        policy, result = optimal_lbp1_policy(paper_params, (100, 60))
        assert isinstance(policy, LBP1)
        assert policy.gain == result.optimal_gain
        assert policy.sender == result.sender

    def test_optimal_lbp2_policy(self, paper_params):
        policy, result = optimal_lbp2_policy(paper_params, (100, 60))
        assert isinstance(policy, LBP2)
        assert policy.gain == result.optimal_gain


class TestDelaySweepOptimum:
    """Pinned optimiser outputs of the seven ``delay-sweep`` points.

    They become each point's cached ``lbp1_gain``, ``lbp1_theory`` and
    ``lbp2_initial_gain`` scalars, which the scenario content hash does not
    cover.  Gains and the sender are exact; the mean allows for another
    LAPACK build or CPU.
    """

    @pytest.mark.parametrize(
        "delay,lbp1_gain,lbp1_mean,lbp2_gain",
        [
            (0.01, 0.35, 116.74907081578613, 1.0),
            (0.1, 0.35, 116.74919258945893, 1.0),
            (0.5, 0.35, 117.69096332660969, 0.95),
            (1, 0.25, 121.00889563713504, 0.75),
            (2, 0.15, 127.71404456653825, 0.4),
            (3, 0.1, 131.7688082149528, 0.25),
            (5, 0.05, 136.02172194561803, 0.15),
        ],
    )
    def test_point_optimum(self, delay, lbp1_gain, lbp1_mean, lbp2_gain):
        spec = registry.resolve(f"delay-sweep/d={delay:g}")
        params = spec.system.to_parameters()
        grid = default_gain_grid()
        lbp1 = optimal_gain_lbp1(params, spec.workload)
        assert lbp1.optimal_gain == grid[round(lbp1_gain / 0.05)]
        assert (lbp1.sender, lbp1.receiver) == (0, 1)
        assert lbp1.optimal_mean == pytest.approx(lbp1_mean, rel=1e-12)
        lbp2 = optimal_gain_lbp2_initial(params, spec.workload)
        assert lbp2.optimal_gain == grid[round(lbp2_gain / 0.05)]

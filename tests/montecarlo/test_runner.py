"""Tests for the Monte-Carlo realisation runner."""

import numpy as np
import pytest

from repro.core.completion_time import CompletionTimeSolver
from repro.core.policies import LBP1, NoBalancing
from repro.montecarlo.engine import EngineRequest, run_engine
from repro.montecarlo.runner import MonteCarloEstimate, MonteCarloRunner


def _estimate(params, policy, workload, num_realisations, **kwargs):
    """One inline engine run of an ad-hoc request."""
    return run_engine(
        EngineRequest(
            params=params,
            policy=policy,
            workload=workload,
            num_realisations=num_realisations,
            **kwargs,
        )
    ).estimate


class TestRunner:
    def test_requires_positive_realisations(self, fast_params):
        runner = MonteCarloRunner(fast_params, NoBalancing(), (10, 10), seed=0)
        with pytest.raises(ValueError):
            runner.run(0)

    def test_estimate_contents(self, fast_params):
        estimate = _estimate(fast_params, LBP1(0.5), (20, 5), 10, seed=1)
        assert isinstance(estimate, MonteCarloEstimate)
        assert estimate.num_realisations == 10
        assert len(estimate.completion_times) == 10
        assert estimate.policy_name == "LBP-1"
        assert estimate.workload == (20, 5)
        assert estimate.summary.ci_low <= estimate.mean_completion_time <= estimate.summary.ci_high

    def test_reproducible_with_same_seed(self, fast_params):
        a = _estimate(fast_params, LBP1(0.5), (20, 5), 5, seed=3).completion_times
        b = _estimate(fast_params, LBP1(0.5), (20, 5), 5, seed=3).completion_times
        assert np.allclose(a, b)

    def test_realisations_are_independent(self, fast_params):
        estimate = _estimate(fast_params, NoBalancing(), (30, 30), 20, seed=2)
        assert len(np.unique(estimate.completion_times)) > 1

    def test_results_kept_when_requested(self, fast_params):
        runner = MonteCarloRunner(
            fast_params, NoBalancing(), (5, 5), seed=0, keep_results=True
        )
        estimate = runner.run(4)
        assert len(estimate.results) == 4
        assert all(result.total_completed == 10 for result in estimate.results)

    def test_results_dropped_by_default(self, fast_params):
        estimate = _estimate(fast_params, NoBalancing(), (5, 5), 4, seed=0)
        assert estimate.results == []

    def test_progress_callback(self, fast_params):
        seen = []
        runner = MonteCarloRunner(fast_params, NoBalancing(), (5, 5), seed=0)
        runner.run(3, progress=lambda k, result: seen.append(k))
        assert seen == [0, 1, 2]

    def test_percentiles(self, fast_params):
        estimate = _estimate(fast_params, NoBalancing(), (20, 20), 30, seed=4)
        assert estimate.percentile(0) == pytest.approx(estimate.completion_times.min())
        assert estimate.percentile(100) == pytest.approx(estimate.completion_times.max())

    def test_system_kwargs_forwarded(self, fast_params):
        runner = MonteCarloRunner(
            fast_params, NoBalancing(), (5, 5), seed=0, keep_results=True,
            record_trace=True,
        )
        estimate = runner.run(2)
        assert all(result.trace is not None for result in estimate.results)


class TestStatisticalAgreementWithTheory:
    def test_mc_mean_matches_regeneration_model(self, fast_params):
        """The simulator and eq. (4) describe the same system."""
        solver = CompletionTimeSolver(fast_params)
        predicted = solver.lbp1((40, 10), 0.4, sender=0, receiver=1).mean
        estimate = _estimate(
            fast_params, LBP1(0.4, sender=0, receiver=1), (40, 10), 250, seed=11
        )
        # within 3 standard errors
        margin = 3 * estimate.summary.standard_error
        assert abs(estimate.mean_completion_time - predicted) < margin + 0.05 * predicted


class TestBackendSelection:
    def test_default_backend_matches_explicit_reference(self, fast_params):
        explicit = _estimate(
            fast_params, LBP1(0.5), (20, 5), 5, seed=3, backend="reference"
        )
        implicit = _estimate(fast_params, LBP1(0.5), (20, 5), 5, seed=3)
        np.testing.assert_array_equal(
            explicit.completion_times, implicit.completion_times
        )

    def test_runner_is_the_engines_block_primitive(self, fast_params):
        """The engine runs each seed block through MonteCarloRunner: a
        one-block ensemble equals the primitive seeded with block 0's seed."""
        from repro.distributed.plan import block_seed

        engine_run = _estimate(fast_params, LBP1(0.5), (20, 5), 5, seed=3)
        primitive = MonteCarloRunner(
            fast_params, LBP1(0.5), (20, 5), seed=block_seed(3, 0)
        ).run(5)
        np.testing.assert_array_equal(
            engine_run.completion_times, primitive.completion_times
        )

    def test_vectorized_backend_runs_and_aggregates(self, fast_params):
        estimate = _estimate(
            fast_params, LBP1(0.5), (20, 5), 12, seed=3, backend="vectorized"
        )
        assert estimate.num_realisations == 12
        assert estimate.results == []
        assert estimate.policy_name == "LBP-1"

    def test_repeated_runs_draw_fresh_samples(self, fast_params):
        # run() spawns fresh child streams per call, so repeated calls on
        # one runner must not replay the same batch.
        runner = MonteCarloRunner(fast_params, LBP1(0.5), (20, 5), seed=3)
        first = runner.run(8).completion_times
        second = runner.run(8).completion_times
        assert not np.array_equal(first, second)

    def test_vectorized_backend_is_deterministic(self, fast_params):
        a = _estimate(
            fast_params, LBP1(0.5), (20, 5), 8, seed=3, backend="vectorized"
        )
        b = _estimate(
            fast_params, LBP1(0.5), (20, 5), 8, seed=3, backend="vectorized"
        )
        np.testing.assert_array_equal(a.completion_times, b.completion_times)

    def test_unknown_backend_is_rejected(self, fast_params):
        # The name resolves where the block runs, so the engine surfaces
        # the lookup error once the block has exhausted its attempts.
        from repro.distributed.scheduler import ShardExecutionError

        with pytest.raises(ShardExecutionError, match="unknown execution backend"):
            _estimate(fast_params, LBP1(0.5), (20, 5), 4, seed=3, backend="fpga")

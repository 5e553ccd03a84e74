"""Pooled Monte-Carlo execution through the engine.

A run over process slots or a caller's futures pool is the same
block-planned sample as an inline run, so every pooled estimate here must
equal its inline twin exactly.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.policies import LBP1, NoBalancing
from repro.montecarlo.engine import EngineRequest, mc_point_spec, run_engine


def _estimate(
    params, policy, workload, num_realisations, seed, backend="reference", **execution
):
    return run_engine(
        EngineRequest(
            spec=mc_point_spec(
                params, policy, workload, num_realisations, seed, backend
            ),
            **execution,
        )
    ).estimate


class TestParallelRunner:
    def test_requires_positive_realisations(self, fast_params):
        with pytest.raises(ValueError):
            _estimate(
                fast_params, NoBalancing(), (5, 5), 0, seed=0,
                executor="process", workers=2,
            )

    def test_inline_fallback_matches_serial_runner(self, fast_params):
        """A one-slot process pool draws the same block-seeded sample as a
        serial run."""
        serial = _estimate(fast_params, LBP1(0.5), (20, 5), 8, seed=5)
        single_slot = _estimate(
            fast_params, LBP1(0.5), (20, 5), 8, seed=5,
            executor="process", workers=1,
        )
        np.testing.assert_array_equal(
            serial.completion_times, single_slot.completion_times
        )
        assert serial.summary == single_slot.summary

    def test_process_pool_execution(self, fast_params):
        """A small run through real worker processes."""
        estimate = _estimate(
            fast_params, NoBalancing(), (10, 10), 8, seed=3,
            executor="process", workers=2,
        )
        assert estimate.num_realisations == 8
        assert estimate.mean_completion_time > 0

    def test_parallel_matches_inline_results(self, fast_params):
        inline = _estimate(
            fast_params, NoBalancing(), (10, 10), 6, seed=9, executor="inline"
        )
        pooled = _estimate(
            fast_params, NoBalancing(), (10, 10), 6, seed=9,
            executor="process", workers=2,
        )
        np.testing.assert_array_equal(
            inline.completion_times, pooled.completion_times
        )
        assert inline.summary == pooled.summary


class TestWorkerCap:
    def test_default_pool_size_also_capped(self):
        from repro.montecarlo.pooling import cap_pool_size

        assert cap_pool_size(None, 2) <= 2


class TestExternalExecutor:
    def test_external_executor_matches_inline_and_stays_open(self, fast_params):
        """An externally-managed pool is reused as-is and never shut down."""
        inline = _estimate(fast_params, LBP1(0.5), (20, 5), 6, seed=5)
        with ThreadPoolExecutor(max_workers=2) as pool:
            first = _estimate(
                fast_params, LBP1(0.5), (20, 5), 6, seed=5, executor=pool
            )
            # The same pool serves a second call (amortised start-up).
            second = _estimate(
                fast_params, LBP1(0.5), (20, 5), 6, seed=5, executor=pool
            )
            assert pool.submit(lambda: 1).result() == 1
        np.testing.assert_array_equal(
            inline.completion_times, first.completion_times
        )
        np.testing.assert_array_equal(
            first.completion_times, second.completion_times
        )

    def test_executor_takes_precedence_over_max_workers(self, fast_params):
        with ThreadPoolExecutor(max_workers=1) as pool:
            estimate = _estimate(
                fast_params, NoBalancing(), (10, 10), 4, seed=3,
                executor=pool, workers=1,
            )
        assert estimate.num_realisations == 4


class TestAutoBackendDispatch:
    def test_reference_backend_matches_default_dispatch(self, fast_params):
        default = _estimate(fast_params, LBP1(0.5), (20, 5), 6, seed=9)
        explicit = _estimate(
            fast_params, LBP1(0.5), (20, 5), 6, seed=9, backend="reference"
        )
        np.testing.assert_array_equal(
            default.completion_times, explicit.completion_times
        )

    def test_vectorized_backend_pool_arguments_change_nothing(self, fast_params):
        serial = _estimate(
            fast_params, LBP1(0.5), (20, 5), 6, seed=9, backend="vectorized"
        )
        pooled = _estimate(
            fast_params, LBP1(0.5), (20, 5), 6, seed=9,
            backend="vectorized", executor="process", workers=2,
        )
        np.testing.assert_array_equal(
            serial.completion_times, pooled.completion_times
        )

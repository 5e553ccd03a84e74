"""Tests for the application layer (matrix-multiplication tasks)."""

import numpy as np
import pytest

from repro.analysis.fitting import fit_exponential
from repro.testbed.application import ApplicationLayer, MatrixWorkloadGenerator


class TestMatrixWorkloadGenerator:
    def test_generates_requested_counts(self, rng):
        generator = MatrixWorkloadGenerator()
        sizes = generator.generate([3, 0, 2], rng)
        assert [len(node_sizes) for node_sizes in sizes] == [3, 0, 2]
        assert all(isinstance(size, float) for size in sizes[0])

    def test_sizes_are_drawn_node_by_node_one_per_task(self):
        generator = MatrixWorkloadGenerator(mean_size=2.5)
        one_by_one = np.random.default_rng(7)
        expected = [
            [max(float(one_by_one.exponential(1.0 / (1.0 / 2.5))), 1e-9) for _ in range(count)]
            for count in (4, 0, 3)
        ]
        assert generator.generate([4, 0, 3], np.random.default_rng(7)) == expected

    def test_sizes_are_random_and_positive(self, rng):
        generator = MatrixWorkloadGenerator()
        sizes = np.array(generator.generate([200], rng)[0])
        assert np.all(sizes > 0)
        assert sizes.std() > 0

    def test_sizes_exponentially_distributed(self, rng):
        generator = MatrixWorkloadGenerator(mean_size=2.0)
        fit = fit_exponential(generator.generate([5000], rng)[0])
        assert fit.mean == pytest.approx(2.0, rel=0.05)
        assert fit.acceptable

    def test_row_length_scales_with_size(self):
        generator = MatrixWorkloadGenerator(base_row_length=100)
        assert generator.row_length(2.0) > generator.row_length(0.5)
        assert generator.row_length(1e-9) >= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            MatrixWorkloadGenerator(mean_size=0.0)
        with pytest.raises(ValueError):
            MatrixWorkloadGenerator(base_row_length=0)
        with pytest.raises(ValueError):
            MatrixWorkloadGenerator().generate([-1], np.random.default_rng(0))


class TestApplicationLayer:
    def test_execution_time_is_exponential_with_service_rate(self, rng):
        generator = MatrixWorkloadGenerator()
        application = ApplicationLayer(service_rate=1.86, generator=generator)
        times = [application.execution_time(size) for size in generator.generate([5000], rng)[0]]
        fit = fit_exponential(times)
        assert fit.rate == pytest.approx(1.86, rel=0.05)

    def test_faster_node_executes_faster(self, rng):
        generator = MatrixWorkloadGenerator()
        slow = ApplicationLayer(service_rate=1.08, generator=generator)
        fast = ApplicationLayer(service_rate=1.86, generator=generator)
        assert fast.execution_time(1.0) < slow.execution_time(1.0)

    def test_execute_real_returns_matrix_product(self, rng):
        application = ApplicationLayer(service_rate=1.0, matrix_size=16)
        result = application.execute_real(1.0, rng)
        assert result.shape[1] == 16
        assert np.all(np.isfinite(result))

    def test_static_matrix_is_reused(self, rng):
        application = ApplicationLayer(service_rate=1.0, matrix_size=8)
        application.execute_real(1.0, rng)
        first = application._static_matrix
        application.execute_real(1.0, rng)
        assert application._static_matrix is first

    def test_invalid_service_rate(self):
        with pytest.raises(ValueError):
            ApplicationLayer(service_rate=0.0)

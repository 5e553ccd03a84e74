"""Ablation/scaling: Monte-Carlo realisation counts and parallel execution."""

import pytest

from repro.core.parameters import paper_parameters
from repro.core.policies import LBP2
from repro.montecarlo.engine import EngineRequest, mc_point_spec, run_engine

WORKLOAD = (100, 60)


def _request(realisations, **execution):
    return EngineRequest(
        spec=mc_point_spec(
            paper_parameters(), LBP2(1.0), WORKLOAD, realisations, seed=111
        ),
        **execution,
    )


@pytest.mark.benchmark(group="mc-scaling")
@pytest.mark.parametrize("realisations", [100, 500])
def test_serial_monte_carlo(benchmark, bench_once, realisations):
    estimate = bench_once(benchmark, run_engine, _request(realisations)).estimate
    assert estimate.num_realisations == realisations
    assert estimate.mean_completion_time == pytest.approx(112.43, rel=0.08)


@pytest.mark.benchmark(group="mc-scaling")
def test_parallel_monte_carlo(benchmark, bench_once):
    request = _request(500, executor="process", workers=4)
    estimate = bench_once(benchmark, run_engine, request).estimate
    assert estimate.num_realisations == 500
    assert estimate.mean_completion_time == pytest.approx(112.43, rel=0.08)

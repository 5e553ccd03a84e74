"""Ablation: execution backends on the mc-scaling throughput workload.

The same Monte-Carlo estimate computed by both registered backends; the
pytest-benchmark wall times are the raw form of what `python -m repro
bench` reports (speed-up of the vectorized batch kernel over the
event-driven reference simulator).
"""

import pytest

from repro.core.parameters import paper_parameters
from repro.core.policies import LBP1
from repro.montecarlo.engine import EngineRequest, mc_point_spec, run_engine

WORKLOAD = (100, 60)


@pytest.mark.benchmark(group="backends")
@pytest.mark.parametrize("backend", ["reference", "vectorized"])
def test_backend_throughput(benchmark, bench_once, backend):
    request = EngineRequest(
        spec=mc_point_spec(
            paper_parameters(), LBP1(0.35), WORKLOAD, 500, seed=111, backend=backend
        )
    )
    estimate = bench_once(benchmark, run_engine, request).estimate
    assert estimate.num_realisations == 500
    assert estimate.mean_completion_time == pytest.approx(115.3, rel=0.08)

"""Ablation: the three expected-completion-time solvers (eq. (4)).

Compares the reference recursion, the vectorised anti-diagonal sweep and the
sparse absorbing-CTMC formulation on the same configuration: all three must
return the same value; the benchmark groups expose their relative cost.
"""

import pytest

from repro.core.completion_time import CompletionTimeSolver
from repro.core.parameters import paper_parameters

WORKLOAD = (100, 60)
GAIN = 0.35


@pytest.fixture(scope="module")
def expected_value():
    solver = CompletionTimeSolver(paper_parameters(), method="vectorized")
    return solver.lbp1(WORKLOAD, GAIN, sender=0, receiver=1).mean


def _solve(method):
    solver = CompletionTimeSolver(paper_parameters(), method=method)
    return solver.lbp1(WORKLOAD, GAIN, sender=0, receiver=1).mean


@pytest.mark.benchmark(group="solver-ablation")
def test_solver_vectorized(benchmark, expected_value):
    value = benchmark(_solve, "vectorized")
    assert value == pytest.approx(expected_value, rel=1e-10)


@pytest.mark.benchmark(group="solver-ablation")
def test_solver_reference(benchmark, expected_value, bench_once):
    value = bench_once(benchmark, _solve, "reference")
    assert value == pytest.approx(expected_value, rel=1e-10)


@pytest.mark.benchmark(group="solver-ablation")
def test_solver_ctmc(benchmark, expected_value, bench_once):
    value = bench_once(benchmark, _solve, "ctmc")
    assert value == pytest.approx(expected_value, rel=1e-8)


@pytest.mark.benchmark(group="solver-ablation")
def test_gain_sweep_with_cached_hat_table(benchmark):
    """A 21-point gain sweep for one sender/receiver pair on a fresh solver:
    one no-transit table sized for that pair, then every gain's main table
    in one anti-diagonal sweep (the Fig. 3 theory curve)."""
    import numpy as np

    def sweep():
        solver = CompletionTimeSolver(paper_parameters())
        return solver.gain_sweep(WORKLOAD, np.linspace(0, 1, 21), sender=0, receiver=1)

    means = benchmark.pedantic(sweep, rounds=3, iterations=1)
    assert means.min() == pytest.approx(116.75, rel=0.01)


@pytest.mark.benchmark(group="solver-ablation")
def test_delay_sweep_point_search(benchmark):
    """One ``delay-sweep`` point's whole optimiser search at d = 0.5: LBP-1's
    gain over both sender/receiver pairs, then LBP-2's initial gain."""
    from repro.core.optimize import optimal_gain_lbp1, optimal_gain_lbp2_initial

    params = paper_parameters().with_delay_per_task(0.5)

    def search():
        lbp1 = optimal_gain_lbp1(params, WORKLOAD)
        lbp2 = optimal_gain_lbp2_initial(params, WORKLOAD)
        return lbp1, lbp2

    lbp1, lbp2 = benchmark.pedantic(search, rounds=5, iterations=1)
    assert (lbp1.optimal_gain, lbp1.sender) == (pytest.approx(0.35), 0)
    assert lbp1.optimal_mean == pytest.approx(117.69096332660969, rel=1e-12)
    assert lbp2.optimal_gain == pytest.approx(0.95)

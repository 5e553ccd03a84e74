"""Cross-module integration tests.

These tests tie the three independent implementations of the same system —
the regeneration recursion (eq. (4)), the absorbing CTMC, and the
discrete-event simulator — together and check the paper's headline
qualitative findings end to end.
"""

import numpy as np
import pytest

import repro
from repro import (
    LBP1,
    LBP2,
    CompletionTimeSolver,
    EngineRequest,
    NoBalancing,
    mc_point_spec,
    optimal_gain_lbp1,
    optimal_gain_no_failure,
    paper_parameters,
    run_engine,
)
from repro.core.distribution import completion_time_cdf_lbp1
from repro.montecarlo.statistics import evaluate_empirical_cdf


def _estimate(params, policy, workload, num_realisations, seed):
    """One inline engine run of a built mc-point spec."""
    return run_engine(
        EngineRequest(
            spec=mc_point_spec(params, policy, workload, num_realisations, seed)
        )
    ).estimate


class TestPublicAPI:
    def test_version_exposed(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_docstring_example(self):
        params = paper_parameters()
        result = optimal_gain_lbp1(params, (100, 60))
        assert round(result.optimal_gain, 2) == 0.35


class TestTheorySimulationAgreement:
    """Model and simulator must describe the same stochastic system."""

    @pytest.mark.parametrize(
        "workload,gain",
        [((100, 60), 0.35), ((100, 60), 0.0), ((60, 100), 0.5)],
    )
    def test_lbp1_mean_within_monte_carlo_error(self, workload, gain):
        params = paper_parameters()
        solver = CompletionTimeSolver(params)
        sender = 0 if workload[0] >= workload[1] else 1
        predicted = solver.lbp1(workload, gain, sender=sender, receiver=1 - sender).mean
        estimate = _estimate(
            params,
            LBP1(gain, sender=sender, receiver=1 - sender),
            workload,
            num_realisations=120,
            seed=abs(hash((workload, gain))) % 2**31,
        )
        margin = 4 * estimate.summary.standard_error
        assert abs(estimate.mean_completion_time - predicted) < margin

    def test_analytical_cdf_matches_empirical_cdf(self):
        params = paper_parameters()
        workload, gain = (25, 50), 0.15
        times = np.linspace(0, 300, 60)
        analytical = completion_time_cdf_lbp1(
            params, workload, gain, times, sender=1, receiver=0
        )
        estimate = _estimate(
            params, LBP1(gain, sender=1, receiver=0), workload, 250, seed=123
        )
        empirical = evaluate_empirical_cdf(estimate.completion_times, times)
        assert np.max(np.abs(empirical - analytical.probabilities)) < 0.12


class TestPaperQualitativeFindings:
    def test_churn_reduces_the_optimal_gain(self):
        params = paper_parameters()
        with_failure = optimal_gain_lbp1(params, (100, 60))
        without_failure = optimal_gain_no_failure(params, (100, 60))
        assert with_failure.optimal_gain < without_failure.optimal_gain

    def test_lbp2_beats_lbp1_at_small_delay(self):
        """Tables 1-3: at 0.02 s/task the reactive policy wins.

        Both policies are driven by the same per-realisation random streams
        (common random numbers), which makes the few-second advantage the
        paper reports resolvable without tens of thousands of realisations.
        """
        params = paper_parameters()
        optimum = optimal_gain_lbp1(params, (100, 60))
        lbp1 = _estimate(
            params,
            LBP1(optimum.optimal_gain, sender=optimum.sender, receiver=optimum.receiver),
            (100, 60),
            400,
            seed=77,
        )
        lbp2 = _estimate(params, LBP2(1.0), (100, 60), 400, seed=77)
        assert lbp2.mean_completion_time < lbp1.mean_completion_time

    def test_lbp1_beats_lbp2_at_large_delay(self):
        """Table 3: at >= 2 s/task the preemptive policy wins clearly."""
        params = paper_parameters(mean_delay_per_task=2.0)
        optimum = optimal_gain_lbp1(params, (100, 60))
        lbp1 = _estimate(
            params,
            LBP1(optimum.optimal_gain, sender=optimum.sender, receiver=optimum.receiver),
            (100, 60),
            200,
            seed=31,
        )
        lbp2 = _estimate(params, LBP2(1.0), (100, 60), 200, seed=32)
        assert lbp1.mean_completion_time < lbp2.mean_completion_time

    def test_balancing_beats_doing_nothing(self):
        params = paper_parameters()
        nothing = _estimate(params, NoBalancing(), (100, 60), 150, seed=41)
        optimum = optimal_gain_lbp1(params, (100, 60))
        tuned = _estimate(
            params,
            LBP1(optimum.optimal_gain, sender=optimum.sender, receiver=optimum.receiver),
            (100, 60),
            150,
            seed=41,
        )
        assert tuned.mean_completion_time < nothing.mean_completion_time

    def test_lbp2_mc_value_close_to_paper(self):
        """The paper's MC estimate for LBP-2 on (100, 60) is 112.43 s."""
        params = paper_parameters()
        estimate = _estimate(params, LBP2(1.0), (100, 60), 300, seed=51)
        assert estimate.mean_completion_time == pytest.approx(112.43, rel=0.06)

    def test_higher_failure_rate_shrinks_optimal_gain(self):
        """Conclusion of the paper: more churn -> weaker balancing action."""
        from repro.core.parameters import NodeParameters, SystemParameters, TransferDelayModel

        def system(failure_rate):
            return SystemParameters(
                nodes=(
                    NodeParameters(1.08, failure_rate=failure_rate, recovery_rate=0.1),
                    NodeParameters(1.86, failure_rate=failure_rate, recovery_rate=0.05),
                ),
                delay=TransferDelayModel(0.02),
            )

        mild = optimal_gain_lbp1(system(0.01), (100, 60), sender=0, receiver=1)
        harsh = optimal_gain_lbp1(system(0.15), (100, 60), sender=0, receiver=1)
        assert harsh.optimal_gain <= mild.optimal_gain

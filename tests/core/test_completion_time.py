"""Tests for the expected-completion-time solvers (eq. (4))."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.completion_time import (
    CompletionTimeSolver,
    expected_completion_time,
    expected_completion_time_lbp1,
)
from repro.core.nofailure import no_failure_solver
from repro.core.optimize import optimal_gain_lbp1, optimal_gain_lbp2_initial
from repro.core.parameters import (
    NodeParameters,
    SystemParameters,
    TransferDelayModel,
    paper_parameters,
)
from repro.core.policies.base import Transfer
from repro.core.policies.excess import excess_loads, partition_fractions


class TestValidation:
    def test_requires_two_nodes(self, three_node_params):
        with pytest.raises(ValueError):
            CompletionTimeSolver(three_node_params)

    def test_unknown_method_rejected(self, paper_params):
        with pytest.raises(ValueError):
            CompletionTimeSolver(paper_params, method="magic")

    def test_gain_bounds(self, paper_params):
        solver = CompletionTimeSolver(paper_params)
        with pytest.raises(ValueError):
            solver.lbp1((10, 10), 1.5)
        with pytest.raises(ValueError, match=r"gain must lie in \[0, 1\]"):
            solver.gain_sweep((10, 10), [0.5, 1.5])

    def test_negative_transit_rejected(self, paper_params):
        solver = CompletionTimeSolver(paper_params)
        with pytest.raises(ValueError):
            solver.mean_completion_time((10, 10), in_transit=-1)

    def test_bad_destination_rejected(self, paper_params):
        solver = CompletionTimeSolver(paper_params)
        with pytest.raises(IndexError):
            solver.mean_completion_time((10, 10), in_transit=5, destination=3)

    @pytest.mark.parametrize("method", ["vectorized", "reference"])
    def test_non_positive_exit_rate_rejected(self, no_failure_params, method):
        """A configuration with no way out cannot complete: the solve refuses."""
        solver = CompletionTimeSolver(no_failure_params, method=method)
        # Node 0 starts down and never recovers: its tasks never run.
        with pytest.raises(ValueError, match="cannot complete"):
            solver.mean_completion_time((3, 2), initial_state=(0, 1))
        # A batch that never arrives leaves the empty main cell no event.
        with pytest.raises(ValueError, match="cannot complete"):
            solver.mean_completion_time(
                (3, 2), in_transit=4, destination=1, transit_rate=0.0
            )
        with pytest.raises(ValueError, match="cannot complete"):
            solver.transfer_sweep((7, 2), [Transfer(0, 1, 4)], initial_state=(0, 1))

    def test_invalid_sender_receiver_combinations(self, paper_params):
        solver = CompletionTimeSolver(paper_params)
        with pytest.raises(ValueError):
            solver.lbp1((10, 10), 0.5, sender=0)
        with pytest.raises(ValueError):
            solver.lbp1((10, 10), 0.5, sender=0, receiver=0)
        with pytest.raises(IndexError):
            solver.lbp1((10, 10), 0.5, sender=0, receiver=2)


class TestClosedFormSpecialCases:
    def test_zero_tasks_completes_immediately(self, paper_params):
        solver = CompletionTimeSolver(paper_params)
        assert solver.mean_completion_time((0, 0)) == 0.0

    def test_single_reliable_node_is_erlang_mean(self):
        """No failures, no transfer: E[T] = m / λ_d for a single busy node."""
        params = SystemParameters(
            nodes=(NodeParameters(2.0), NodeParameters(1.0)),
            delay=TransferDelayModel(0.02),
        )
        solver = CompletionTimeSolver(params)
        assert solver.mean_completion_time((10, 0)) == pytest.approx(5.0)
        assert solver.mean_completion_time((0, 7)) == pytest.approx(7.0)

    def test_two_reliable_nodes_expected_maximum(self):
        """For one task on each reliable node, E[max of two exponentials]."""
        params = SystemParameters(
            nodes=(NodeParameters(1.0), NodeParameters(2.0)),
            delay=TransferDelayModel(0.02),
        )
        solver = CompletionTimeSolver(params)
        expected = 1.0 / 1.0 + 1.0 / 2.0 - 1.0 / (1.0 + 2.0)
        assert solver.mean_completion_time((1, 1)) == pytest.approx(expected)

    def test_failure_prone_single_node_slowdown_factor(self):
        """A node that is up a fraction A of the time takes ~1/A times longer.

        This is exact in the limit of many tasks; with 400 tasks the relative
        error of the asymptotic formula is small.
        """
        params = SystemParameters(
            nodes=(
                NodeParameters(2.0, failure_rate=0.1, recovery_rate=0.2),
                NodeParameters(1.0),
            ),
            delay=TransferDelayModel(0.0),
        )
        solver = CompletionTimeSolver(params)
        availability = 0.2 / 0.3
        mean = solver.mean_completion_time((400, 0))
        assert mean == pytest.approx(400 / 2.0 / availability, rel=0.03)

    def test_instantaneous_transfer_equals_merged_workload(self, paper_params):
        zero_delay = paper_params.with_delay_per_task(0.0)
        solver = CompletionTimeSolver(zero_delay)
        merged = solver.mean_completion_time((10, 25))
        with_transit = solver.mean_completion_time((10, 5), in_transit=20, destination=1)
        assert with_transit == pytest.approx(merged)

    def test_initial_down_state_adds_recovery_wait(self, paper_params):
        solver = CompletionTimeSolver(paper_params)
        both_up = solver.mean_completion_time((5, 5), initial_state=(1, 1))
        node1_down = solver.mean_completion_time((5, 5), initial_state=(0, 1))
        assert node1_down > both_up


class TestSolverEquivalence:
    @pytest.mark.parametrize("workload,gain", [((20, 12), 0.4), ((15, 0), 0.6), ((8, 30), 0.2)])
    def test_reference_matches_vectorized(self, paper_params, workload, gain):
        reference = CompletionTimeSolver(paper_params, method="reference")
        vectorized = CompletionTimeSolver(paper_params, method="vectorized")
        assert reference.lbp1(workload, gain).mean == pytest.approx(
            vectorized.lbp1(workload, gain).mean, rel=1e-10
        )

    @pytest.mark.parametrize("workload,gain", [((20, 12), 0.4), ((25, 5), 0.3)])
    def test_ctmc_matches_vectorized(self, paper_params, workload, gain):
        ctmc = CompletionTimeSolver(paper_params, method="ctmc")
        vectorized = CompletionTimeSolver(paper_params, method="vectorized")
        assert ctmc.lbp1(workload, gain).mean == pytest.approx(
            vectorized.lbp1(workload, gain).mean, rel=1e-8
        )

    def test_no_failure_solvers_agree(self, no_failure_params):
        reference = CompletionTimeSolver(no_failure_params, method="reference")
        vectorized = CompletionTimeSolver(no_failure_params, method="vectorized")
        ctmc = CompletionTimeSolver(no_failure_params, method="ctmc")
        for method_value in (
            reference.lbp1((30, 10), 0.45).mean,
            ctmc.lbp1((30, 10), 0.45).mean,
        ):
            assert method_value == pytest.approx(
                vectorized.lbp1((30, 10), 0.45).mean, rel=1e-8
            )


class TestGainGridSweep:
    """A gain grid is one anti-diagonal sweep over every gain's main table."""

    def test_lbp2_initial_means_match_per_gain_solves(self, paper_params):
        loads = (100, 60)
        result = optimal_gain_lbp2_initial(paper_params, loads)
        sender, receiver = result.sender, result.receiver
        excess = excess_loads(loads, paper_params)[sender]
        fraction = partition_fractions(loads, paper_params, sender)[receiver]
        expected = []
        for gain in result.gains:
            batch = min(int(round(gain * fraction * excess)), loads[sender])
            remaining = list(loads)
            remaining[sender] -= batch
            expected.append(
                no_failure_solver(paper_params).mean_completion_time(
                    remaining, in_transit=batch, destination=receiver
                )
            )
        assert np.array_equal(result.means, expected)

    @pytest.mark.parametrize("method,rel", [("reference", 1e-10), ("ctmc", 1e-8)])
    def test_sweep_matches_one_gain_at_a_time_oracles(self, paper_params, method, rel):
        gains = [0.0, 0.25, 0.5, 0.75, 1.0]
        vectorized = CompletionTimeSolver(paper_params).gain_sweep(
            (24, 14), gains, sender=0, receiver=1
        )
        oracle = CompletionTimeSolver(paper_params, method=method).gain_sweep(
            (24, 14), gains, sender=0, receiver=1
        )
        assert vectorized == pytest.approx(oracle, rel=rel)

    def test_empty_grid_returns_empty_array(self, paper_params):
        means = CompletionTimeSolver(paper_params).gain_sweep((10, 10), [])
        assert isinstance(means, np.ndarray) and means.shape == (0,)

    def test_both_pairs_share_one_hat_table(self, paper_params, monkeypatch):
        """The optimiser sizes the no-transit table once, for both senders."""
        solver = CompletionTimeSolver(paper_params)
        solve_hat = solver._solve_hat_vectorized
        shapes = []

        def recording(states, shape):
            shapes.append(tuple(int(n) for n in shape))
            return solve_hat(states, shape)

        monkeypatch.setattr(solver, "_solve_hat_vectorized", recording)
        optimal_gain_lbp1(paper_params, (30, 20), solver=solver)
        assert shapes == [(50, 50)]

    def test_batch_outside_the_senders_load_rejected(self, paper_params):
        solver = CompletionTimeSolver(paper_params)
        with pytest.raises(ValueError, match="node 1 holds 3 tasks, cannot send 4"):
            solver.transfer_sweep((5, 3), [Transfer(1, 0, 4)])


class TestPaperHeadlineNumbers:
    def test_fig3_optimal_gain_with_failure(self, paper_params):
        solver = CompletionTimeSolver(paper_params)
        gains = np.round(np.arange(0.0, 1.0001, 0.05), 2)
        means = solver.gain_sweep((100, 60), gains, sender=0, receiver=1)
        assert gains[int(np.argmin(means))] == pytest.approx(0.35)

    def test_fig3_optimal_gain_without_failure(self, no_failure_params):
        solver = CompletionTimeSolver(no_failure_params)
        gains = np.round(np.arange(0.0, 1.0001, 0.05), 2)
        means = solver.gain_sweep((100, 60), gains, sender=0, receiver=1)
        assert gains[int(np.argmin(means))] == pytest.approx(0.45)

    def test_fig3_minimum_completion_time_close_to_paper(self, paper_params):
        """The paper reports a minimum of about 117 s for (100, 60)."""
        solver = CompletionTimeSolver(paper_params)
        prediction = solver.lbp1((100, 60), 0.35, sender=0, receiver=1)
        assert prediction.mean == pytest.approx(117.0, rel=0.03)

    def test_failure_aware_gain_below_no_failure_gain(self, paper_params, no_failure_params):
        """Central qualitative claim: failures call for a smaller gain."""
        gains = np.round(np.arange(0.0, 1.0001, 0.05), 2)
        failure = CompletionTimeSolver(paper_params).gain_sweep(
            (100, 60), gains, sender=0, receiver=1
        )
        clean = CompletionTimeSolver(no_failure_params).gain_sweep(
            (100, 60), gains, sender=0, receiver=1
        )
        assert gains[int(np.argmin(failure))] < gains[int(np.argmin(clean))]

    def test_failure_curve_dominates_no_failure_curve(self, paper_params, no_failure_params):
        gains = np.linspace(0, 1, 11)
        failure = CompletionTimeSolver(paper_params).gain_sweep(
            (100, 60), gains, sender=0, receiver=1
        )
        clean = CompletionTimeSolver(no_failure_params).gain_sweep(
            (100, 60), gains, sender=0, receiver=1
        )
        assert np.all(failure > clean)


class TestStructuralProperties:
    def test_mean_increases_with_workload(self, paper_params):
        solver = CompletionTimeSolver(paper_params)
        small = solver.mean_completion_time((10, 10))
        large = solver.mean_completion_time((20, 10))
        assert large > small

    def test_symmetry_under_node_swap(self):
        """Swapping both the nodes and the workload leaves the mean unchanged."""
        node_a = NodeParameters(1.08, failure_rate=0.05, recovery_rate=0.1)
        node_b = NodeParameters(1.86, failure_rate=0.05, recovery_rate=0.05)
        delay = TransferDelayModel(0.02)
        forward = CompletionTimeSolver(SystemParameters(nodes=(node_a, node_b), delay=delay))
        backward = CompletionTimeSolver(SystemParameters(nodes=(node_b, node_a), delay=delay))
        assert forward.mean_completion_time((30, 12)) == pytest.approx(
            backward.mean_completion_time((12, 30))
        )

    def test_lbp1_prediction_fields(self, paper_params):
        solver = CompletionTimeSolver(paper_params)
        prediction = solver.lbp1((100, 60), 0.35)
        assert prediction.sender == 0
        assert prediction.receiver == 1
        assert prediction.batch_size == 35
        assert prediction.workload == (100, 60)

    def test_gain_sweep_matches_individual_calls(self, paper_params, no_failure_params):
        """One stacked sweep gives each gain's own solve exactly."""
        # Gain 0 reads the no-transit table; 0.1 and 0.11 round to the same
        # batch for either sender; zero delay reads the post-arrival load.
        gains = [0.0, 0.1, 0.11, 0.5, 0.9, 1.0]
        systems = (paper_params, no_failure_params, paper_params.with_delay_per_task(0.0))
        for params in systems:
            for sender, receiver in ((0, 1), (1, 0)):
                sweep = CompletionTimeSolver(params).gain_sweep(
                    (40, 20), gains, sender=sender, receiver=receiver
                )
                individual = [
                    CompletionTimeSolver(params)
                    .lbp1((40, 20), gain, sender=sender, receiver=receiver)
                    .mean
                    for gain in gains
                ]
                assert np.array_equal(sweep, individual)

    def test_hat_cache_reused_across_calls(self, paper_params):
        solver = CompletionTimeSolver(paper_params)
        solver.mean_completion_time((20, 20))
        cached_tables = len(solver._hat_cache)
        solver.mean_completion_time((10, 5))
        assert len(solver._hat_cache) == cached_tables

    def test_module_level_wrappers(self, paper_params):
        direct = expected_completion_time(paper_params, (15, 10))
        solver_value = CompletionTimeSolver(paper_params).mean_completion_time((15, 10))
        assert direct == pytest.approx(solver_value)
        lbp1_value = expected_completion_time_lbp1(paper_params, (15, 10), 0.4)
        assert lbp1_value > 0

    @given(
        m0=st.integers(min_value=0, max_value=30),
        m1=st.integers(min_value=0, max_value=30),
    )
    @settings(max_examples=25, deadline=None)
    def test_mean_is_finite_and_nonnegative(self, m0, m1):
        solver = CompletionTimeSolver(paper_parameters())
        mean = solver.mean_completion_time((m0, m1))
        assert mean >= 0.0
        assert np.isfinite(mean)

    @given(gain=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=20, deadline=None)
    def test_lbp1_mean_bounded_by_extremes(self, gain):
        """Any gain's mean lies between the best and worst achievable value.

        The sender holds 30 tasks, so the grid ``k/30`` for ``k = 0..30``
        enumerates every possible batch size; an arbitrary gain rounds to one
        of them.
        """
        solver = CompletionTimeSolver(paper_parameters())
        value = solver.lbp1((30, 18), gain, sender=0, receiver=1).mean
        grid = solver.gain_sweep((30, 18), np.linspace(0, 1, 31), sender=0, receiver=1)
        assert grid.min() - 1e-9 <= value <= grid.max() + 1e-9

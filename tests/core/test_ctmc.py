"""Tests for the absorbing-CTMC machinery."""

import numpy as np
import pytest
from scipy import sparse

from repro.core.ctmc import AbsorbingCTMC, build_chain, build_two_node_lbp1_chain
from repro.core.parameters import NodeParameters, SystemParameters, TransferDelayModel


def two_state_chain(rate=2.0):
    """A single exponential step to absorption: E[T] = 1/rate."""
    generator = sparse.csr_matrix(np.array([[-rate, rate], [0.0, 0.0]]))
    return AbsorbingCTMC(generator, np.array([False, True]), states=["start", "done"])


def three_state_chain(a=1.0, b=3.0):
    """start -> middle -> done: E[T] = 1/a + 1/b."""
    generator = sparse.csr_matrix(
        np.array([[-a, a, 0.0], [0.0, -b, b], [0.0, 0.0, 0.0]])
    )
    return AbsorbingCTMC(generator, np.array([False, False, True]))


class TestValidation:
    def test_generator_must_be_square(self):
        with pytest.raises(ValueError):
            AbsorbingCTMC(sparse.csr_matrix(np.ones((2, 3))), np.array([False, True]))

    def test_mask_length_checked(self):
        generator = sparse.csr_matrix(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            AbsorbingCTMC(generator, np.array([True]))

    def test_needs_an_absorbing_state(self):
        generator = sparse.csr_matrix(np.array([[-1.0, 1.0], [1.0, -1.0]]))
        with pytest.raises(ValueError):
            AbsorbingCTMC(generator, np.array([False, False]))

    def test_rows_must_sum_to_zero(self):
        generator = sparse.csr_matrix(np.array([[-1.0, 2.0], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            AbsorbingCTMC(generator, np.array([False, True]))


class TestExpectedAbsorption:
    def test_single_step(self):
        chain = two_state_chain(rate=2.0)
        assert chain.expected_absorption_time(0) == pytest.approx(0.5)

    def test_absorbing_start_takes_zero_time(self):
        chain = two_state_chain()
        assert chain.expected_absorption_time(1) == 0.0

    def test_two_step_chain(self):
        chain = three_state_chain(a=1.0, b=3.0)
        assert chain.expected_absorption_time(0) == pytest.approx(1.0 + 1.0 / 3.0)
        assert chain.expected_absorption_time(1) == pytest.approx(1.0 / 3.0)

    def test_all_states_at_once(self):
        chain = three_state_chain(a=2.0, b=4.0)
        times = chain.expected_absorption_times()
        assert times[0] == pytest.approx(0.5 + 0.25)
        assert times[1] == pytest.approx(0.25)
        assert times[2] == 0.0

    def test_out_of_range_start_rejected(self):
        with pytest.raises(IndexError):
            two_state_chain().expected_absorption_time(5)


class TestTransientAnalysis:
    def test_single_step_cdf_is_exponential(self):
        chain = two_state_chain(rate=2.0)
        times = np.linspace(0, 3, 20)
        cdf = chain.absorption_cdf(0, times)
        assert np.allclose(cdf, 1.0 - np.exp(-2.0 * times), atol=1e-8)

    @pytest.mark.parametrize("method", ["uniformization", "expm", "ode"])
    def test_methods_agree(self, method):
        chain = three_state_chain(a=1.5, b=0.7)
        times = np.linspace(0, 8, 15)
        reference = chain.absorption_cdf(0, times, method="uniformization")
        other = chain.absorption_cdf(0, times, method=method)
        assert np.allclose(reference, other, atol=1e-6)

    def test_methods_agree_on_an_unsorted_grid_with_repeats(self):
        # expm and ode step through the sorted distinct times; each answer
        # must land back in the caller's order, repeats and t = 0 included.
        chain = three_state_chain(a=1.5, b=0.7)
        times = np.array([4.0, 0.0, 2.5, 4.0, 0.5, 0.0])
        expected = 1.0 - (
            0.7 * np.exp(-1.5 * times) - 1.5 * np.exp(-0.7 * times)
        ) / (0.7 - 1.5)
        for method in ("uniformization", "expm", "ode"):
            distribution = chain.transient_distribution(0, times, method=method)
            assert np.allclose(distribution[:, 2], expected, atol=1e-7), method
            assert np.array_equal(distribution[1], [1.0, 0.0, 0.0]), method
            assert np.array_equal(distribution[0], distribution[3]), method

    def test_cdf_monotone_and_bounded(self):
        chain = three_state_chain()
        cdf = chain.absorption_cdf(0, np.linspace(0, 20, 40))
        assert np.all(np.diff(cdf) >= -1e-12)
        assert np.all((cdf >= 0) & (cdf <= 1 + 1e-12))

    def test_cdf_at_time_zero_is_zero_for_transient_start(self):
        chain = two_state_chain()
        assert chain.absorption_cdf(0, [0.0])[0] == pytest.approx(0.0)

    def test_distribution_rows_sum_to_one(self):
        chain = three_state_chain()
        distribution = chain.transient_distribution(0, np.linspace(0, 5, 10))
        assert np.allclose(distribution.sum(axis=1), 1.0, atol=1e-9)

    def test_negative_times_rejected(self):
        with pytest.raises(ValueError):
            two_state_chain().transient_distribution(0, [-1.0])

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            two_state_chain().transient_distribution(0, [1.0], method="laplace")

    def test_mean_from_cdf_matches_direct_solution(self):
        chain = three_state_chain(a=1.0, b=2.0)
        times = np.linspace(0, 60, 2000)
        cdf = chain.absorption_cdf(0, times)
        mean_from_cdf = np.trapezoid(1.0 - cdf, times)
        assert mean_from_cdf == pytest.approx(chain.expected_absorption_time(0), rel=1e-3)


class TestBuildChain:
    def test_simple_birth_death(self):
        def successors(state):
            return [(state - 1, 2.0)] if state > 0 else []

        result = build_chain(3, successors, lambda s: s == 0)
        assert result.chain.num_states == 4
        assert result.chain.expected_absorption_time(result.start_index) == pytest.approx(1.5)

    def test_dead_end_state_detected(self):
        def successors(state):
            return []  # no way out and not absorbing

        with pytest.raises(ValueError):
            build_chain("stuck", successors, lambda s: False)

    def test_unpacking_protocol(self):
        def successors(state):
            return [(state - 1, 1.0)] if state > 0 else []

        chain, start = build_chain(1, successors, lambda s: s == 0)
        assert start == 0
        assert chain.num_states == 2


class TestTwoNodeChainBuilder:
    def test_without_transit_small_case(self):
        params = SystemParameters(
            nodes=(NodeParameters(2.0), NodeParameters(1.0)),
            delay=TransferDelayModel(0.02),
        )
        chain, start = build_two_node_lbp1_chain(params, tasks=(3, 0))
        assert chain.expected_absorption_time(start) == pytest.approx(1.5)

    def test_instantaneous_transit_folded_into_destination(self):
        params = SystemParameters(
            nodes=(NodeParameters(2.0), NodeParameters(1.0)),
            delay=TransferDelayModel(0.0),
        )
        chain, start = build_two_node_lbp1_chain(
            params, tasks=(0, 0), in_transit=4, destination=1
        )
        assert chain.expected_absorption_time(start) == pytest.approx(4.0)

    def test_state_space_size_without_failures(self):
        params = SystemParameters(
            nodes=(NodeParameters(1.0), NodeParameters(1.0)),
            delay=TransferDelayModel(0.02),
        )
        chain, _ = build_two_node_lbp1_chain(params, tasks=(2, 2))
        # Only the (1,1) work state is reachable: (2+1)*(2+1) load states.
        assert chain.num_states == 9

    def test_invalid_inputs_rejected(self, paper_params):
        with pytest.raises(ValueError):
            build_two_node_lbp1_chain(paper_params, tasks=(-1, 0))
        with pytest.raises(ValueError):
            build_two_node_lbp1_chain(paper_params, tasks=(1, 1), in_transit=-2)
        with pytest.raises(IndexError):
            build_two_node_lbp1_chain(paper_params, tasks=(1, 1), in_transit=1, destination=4)

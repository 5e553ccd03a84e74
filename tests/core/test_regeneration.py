"""Tests for the shared regeneration machinery (exit rates, coupling matrices)."""

import numpy as np
import pytest

from repro.core.regeneration import (
    TwoNodeRates,
    batched_coupling_systems,
    coupling_system,
    exit_rate_components,
)
from repro.core.state import all_work_states, work_state_rate_matrix


class TestTwoNodeRates:
    def test_from_params(self, paper_params):
        rates = TwoNodeRates.from_params(paper_params)
        assert rates.service == (1.08, 1.86)
        assert rates.failure == (pytest.approx(0.05), pytest.approx(0.05))
        assert rates.recovery == (pytest.approx(0.1), pytest.approx(0.05))

    def test_requires_two_nodes(self, three_node_params):
        with pytest.raises(ValueError):
            TwoNodeRates.from_params(three_node_params)


class TestExitRateComponents:
    def test_paper_lambda_constants(self, paper_params):
        """The base+service decomposition reproduces λ_A..λ_D of eq. (4)."""
        rates = TwoNodeRates.from_params(paper_params)
        states = all_work_states(2)
        transit_rate = 1.0 / (0.02 * 35)  # λ_21 for a 35-task batch
        base, svc0, svc1 = exit_rate_components(states, rates, transit_rate)
        idx = {state: k for k, state in enumerate(states)}

        lam_d1, lam_d2 = 1.08, 1.86
        lam_f1 = lam_f2 = 0.05
        lam_r1, lam_r2 = 0.1, 0.05

        # λ_A: both nodes down -> recoveries + transfer.
        assert base[idx[(0, 0)]] == pytest.approx(lam_r1 + lam_r2 + transit_rate)
        # λ_B: node 1 down, node 2 up (plus node-2 service when it has tasks).
        assert base[idx[(0, 1)]] + svc1[idx[(0, 1)]] == pytest.approx(
            lam_d2 + lam_r1 + lam_f2 + transit_rate
        )
        # λ_C: node 1 up, node 2 down.
        assert base[idx[(1, 0)]] + svc0[idx[(1, 0)]] == pytest.approx(
            lam_d1 + lam_f1 + lam_r2 + transit_rate
        )
        # λ_D: both up.
        assert base[idx[(1, 1)]] + svc0[idx[(1, 1)]] + svc1[idx[(1, 1)]] == pytest.approx(
            lam_d1 + lam_d2 + lam_f1 + lam_f2 + transit_rate
        )

    def test_service_components_only_for_up_nodes(self, paper_params):
        rates = TwoNodeRates.from_params(paper_params)
        states = all_work_states(2)
        _, svc0, svc1 = exit_rate_components(states, rates, 0.0)
        idx = {state: k for k, state in enumerate(states)}
        assert svc0[idx[(0, 1)]] == 0.0
        assert svc1[idx[(0, 1)]] == pytest.approx(1.86)
        assert svc0[idx[(1, 0)]] == pytest.approx(1.08)
        assert svc1[idx[(1, 0)]] == 0.0

    def test_negative_transit_rate_rejected(self, paper_params):
        rates = TwoNodeRates.from_params(paper_params)
        with pytest.raises(ValueError):
            exit_rate_components(all_work_states(2), rates, -1.0)


class TestCouplingSystems:
    def test_matrix_matches_paper_equation_4(self, paper_params):
        """Row of A for state (0,0) is [1, -λ_r2/λ_A, -λ_r1/λ_A, 0]."""
        states = all_work_states(2)
        rates = TwoNodeRates.from_params(paper_params)
        transit_rate = 1.0
        base, svc0, svc1 = exit_rate_components(states, rates, transit_rate)
        # Both nodes hold tasks: full exit rates.
        lam = base + svc0 + svc1
        matrix = coupling_system(states, paper_params, lam)
        idx = {state: k for k, state in enumerate(states)}

        lam_a = lam[idx[(0, 0)]]
        row = matrix[idx[(0, 0)]]
        assert row[idx[(0, 0)]] == pytest.approx(1.0)
        assert row[idx[(0, 1)]] == pytest.approx(-0.05 / lam_a)   # -λ_r2/λ_A
        assert row[idx[(1, 0)]] == pytest.approx(-0.1 / lam_a)    # -λ_r1/λ_A
        assert row[idx[(1, 1)]] == pytest.approx(0.0)

        lam_d = lam[idx[(1, 1)]]
        row = matrix[idx[(1, 1)]]
        assert row[idx[(0, 1)]] == pytest.approx(-0.05 / lam_d)   # -λ_f1/λ_D
        assert row[idx[(1, 0)]] == pytest.approx(-0.05 / lam_d)   # -λ_f2/λ_D
        assert row[idx[(0, 0)]] == pytest.approx(0.0)

    def test_zero_exit_rate_rejected(self, no_failure_params):
        states = all_work_states(2)
        with pytest.raises(ValueError):
            coupling_system(states, no_failure_params, np.zeros(4))

    def test_batched_matches_single(self, paper_params):
        states = all_work_states(2)
        rates = TwoNodeRates.from_params(paper_params)
        base, svc0, svc1 = exit_rate_components(states, rates, 0.5)
        lam_full = base + svc0 + svc1
        lam_no0 = base + svc1

        batch = batched_coupling_systems(
            work_state_rate_matrix(states, paper_params), np.vstack([lam_full, lam_no0])
        )
        assert np.allclose(batch[0], coupling_system(states, paper_params, lam_full))
        assert np.allclose(batch[1], coupling_system(states, paper_params, lam_no0))

    def test_batched_shape_validation(self, paper_params):
        states = all_work_states(2)
        with pytest.raises(ValueError):
            batched_coupling_systems(
                work_state_rate_matrix(states, paper_params), np.ones((3, 2))
            )

    def test_coupling_matrix_is_diagonally_dominant(self, paper_params):
        """|A_ss| >= Σ_{s'≠s} |A_ss'| guarantees solvability of eq. (4)."""
        states = all_work_states(2)
        rates = TwoNodeRates.from_params(paper_params)
        base, svc0, svc1 = exit_rate_components(states, rates, 0.8)
        lam = base + svc0 + svc1
        matrix = coupling_system(states, paper_params, lam)
        for row in matrix:
            diagonal = abs(row[np.argmax(np.abs(row))])
            assert abs(row).sum() - diagonal <= diagonal + 1e-12

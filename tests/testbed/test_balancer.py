"""Tests for the load-balancing/failure layer of the test-bed emulation."""

import pytest

from repro.core.policies import LBP1, LBP2
from repro.core.policies.base import Transfer
from repro.testbed.experiment import TestbedConfig, TestbedExperiment


class TestBalancerThroughExperiment:
    """These tests run tiny experiments and inspect the transfers the
    load-balancing layer executed."""

    def test_initial_balancing_executed_once_by_sender_only(self, fast_params):
        experiment = TestbedExperiment(
            fast_params, LBP1(0.5, sender=0, receiver=1), (20, 0), seed=1
        )
        result = experiment.run()
        assert result.initial_transfers == [Transfer(0, 1, 10)]

    def test_initial_decision_waits_for_state_exchange(self, fast_params):
        # With a long synchronisation window the t = 0 balancing action (and
        # therefore completion) cannot happen before the window has elapsed.
        config = TestbedConfig(sync_wait=0.5)
        experiment = TestbedExperiment(
            fast_params, LBP1(0.5, sender=0, receiver=1), (20, 0), seed=1, config=config
        )
        result = experiment.run()
        assert result.completion_time > 0.5

    def test_lbp2_compensation_recorded(self, paper_params):
        experiment = TestbedExperiment(paper_params, LBP2(1.0), (100, 60), seed=3)
        result = experiment.run()
        total_failures = sum(result.failures_per_node)
        if total_failures > 0:
            assert len(result.compensation_transfers) > 0
        assert result.tasks_completed_per_node[0] + result.tasks_completed_per_node[1] == 160

    def test_lbp1_never_compensates(self, paper_params):
        experiment = TestbedExperiment(
            paper_params, LBP1(0.35, sender=0, receiver=1), (100, 60), seed=3
        )
        result = experiment.run()
        assert result.compensation_transfers == []

    def test_balancer_decides_from_exchanged_state(self, fast_params):
        """The overloaded node identifies itself from the exchanged queue
        sizes and executes its own outgoing excess transfer."""
        lossless = TestbedExperiment(
            fast_params, LBP2(1.0), (10, 40), seed=5,
            config=TestbedConfig(state_loss_probability=0.0),
        )
        result = lossless.run()
        # Node 1 is overloaded relative to the speed-weighted fair share and sends.
        assert result.initial_transfers
        assert all(transfer.source == 1 for transfer in result.initial_transfers)

"""Tests for the system parameterisation."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.parameters import (
    PAPER_MEAN_DELAY_PER_TASK,
    PAPER_SERVICE_RATES,
    NodeParameters,
    SystemParameters,
    TransferDelayModel,
    homogeneous_parameters,
    paper_parameters,
    validate_workload,
)


class TestNodeParameters:
    def test_basic_derived_quantities(self):
        node = NodeParameters(service_rate=2.0, failure_rate=0.05, recovery_rate=0.1)
        assert node.mean_service_time == pytest.approx(0.5)
        assert node.mean_time_to_failure == pytest.approx(20.0)
        assert node.mean_recovery_time == pytest.approx(10.0)
        assert node.can_fail

    def test_reliable_node(self):
        node = NodeParameters(service_rate=1.0)
        assert node.mean_time_to_failure == math.inf
        assert node.mean_recovery_time == 0.0
        assert node.availability == 1.0
        assert not node.can_fail

    def test_availability_formula(self):
        node = NodeParameters(service_rate=1.0, failure_rate=0.05, recovery_rate=0.1)
        assert node.availability == pytest.approx(0.1 / 0.15)

    def test_rejects_non_positive_service_rate(self):
        with pytest.raises(ValueError):
            NodeParameters(service_rate=0.0)

    def test_rejects_negative_failure_rate(self):
        with pytest.raises(ValueError):
            NodeParameters(service_rate=1.0, failure_rate=-0.1)

    def test_rejects_failure_without_recovery(self):
        with pytest.raises(ValueError):
            NodeParameters(service_rate=1.0, failure_rate=0.1, recovery_rate=0.0)

    def test_rejects_initially_down_without_recovery(self):
        with pytest.raises(ValueError):
            NodeParameters(service_rate=1.0, initially_up=False)

    def test_without_failures(self):
        node = NodeParameters(service_rate=1.0, failure_rate=0.1, recovery_rate=0.2)
        clean = node.without_failures()
        assert clean.failure_rate == 0.0
        assert clean.recovery_rate == 0.0
        assert clean.service_rate == 1.0


class TestTransferDelayModel:
    def test_mean_delay_linear_in_batch_size(self):
        model = TransferDelayModel(mean_delay_per_task=0.02)
        assert model.mean_delay(50) == pytest.approx(1.0)
        assert model.mean_delay(0) == 0.0

    def test_fixed_overhead_added(self):
        model = TransferDelayModel(mean_delay_per_task=0.02, fixed_overhead=0.5)
        assert model.mean_delay(50) == pytest.approx(1.5)

    def test_batch_rate_is_inverse_mean(self):
        model = TransferDelayModel(mean_delay_per_task=0.02)
        assert model.batch_rate(50) == pytest.approx(1.0)

    def test_zero_delay_gives_infinite_rate(self):
        assert TransferDelayModel(0.0).batch_rate(10) == math.inf

    def test_negative_batch_rejected(self):
        with pytest.raises(ValueError):
            TransferDelayModel(0.02).mean_delay(-1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            TransferDelayModel(0.02, kind="gaussian")

    def test_with_mean_delay_per_task(self):
        model = TransferDelayModel(0.02, fixed_overhead=0.1, kind="erlang")
        scaled = model.with_mean_delay_per_task(1.0)
        assert scaled.mean_delay_per_task == 1.0
        assert scaled.fixed_overhead == 0.1
        assert scaled.kind == "erlang"


class TestSystemParameters:
    def test_accessors(self, paper_params):
        assert paper_params.num_nodes == 2
        assert paper_params.service_rates == PAPER_SERVICE_RATES
        assert paper_params.total_service_rate == pytest.approx(sum(PAPER_SERVICE_RATES))
        assert paper_params.node(0).name == "crusoe"

    def test_requires_at_least_one_node(self):
        with pytest.raises(ValueError):
            SystemParameters(nodes=())

    def test_node_index_validation(self, paper_params):
        with pytest.raises(IndexError):
            paper_params.node(5)

    def test_transfer_rate_depends_on_batch_size(self, paper_params):
        assert paper_params.transfer_rate(0, 1, 50) == pytest.approx(1.0)
        assert paper_params.transfer_rate(0, 1, 100) == pytest.approx(0.5)

    def test_without_failures(self, paper_params):
        clean = paper_params.without_failures()
        assert all(rate == 0.0 for rate in clean.failure_rates)
        assert clean.service_rates == paper_params.service_rates

    def test_with_delay_per_task(self, paper_params):
        scaled = paper_params.with_delay_per_task(1.0)
        assert scaled.delay.mean_delay_per_task == 1.0
        assert paper_params.delay.mean_delay_per_task == PAPER_MEAN_DELAY_PER_TASK

    def test_pairwise_delay_overrides(self, paper_params):
        special = TransferDelayModel(5.0)
        overridden = paper_params.with_pairwise_delays([((0, 1), special)])
        assert overridden.delay_model(0, 1) is special
        assert overridden.delay_model(1, 0) is paper_params.delay

    def test_pairwise_override_validation(self, paper_params):
        with pytest.raises(ValueError):
            paper_params.with_pairwise_delays([((0, 0), TransferDelayModel(1.0))])
        with pytest.raises(IndexError):
            paper_params.with_pairwise_delays([((0, 7), TransferDelayModel(1.0))])

    def test_require_two_nodes(self, three_node_params, paper_params):
        paper_params.require_two_nodes()
        with pytest.raises(ValueError):
            three_node_params.require_two_nodes()

    def test_with_nodes_replaces_nodes(self, paper_params):
        replaced = paper_params.with_nodes([NodeParameters(1.0)])
        assert replaced.num_nodes == 1


class TestFactories:
    def test_paper_parameters_match_published_setup(self):
        params = paper_parameters()
        assert params.service_rates == (1.08, 1.86)
        assert params.failure_rates == (pytest.approx(0.05), pytest.approx(0.05))
        assert params.recovery_rates == (pytest.approx(0.1), pytest.approx(0.05))
        assert params.delay.mean_delay_per_task == 0.02

    def test_paper_parameters_without_failures(self):
        params = paper_parameters(with_failures=False)
        assert params.failure_rates == (0.0, 0.0)

    def test_paper_parameters_custom_delay(self):
        assert paper_parameters(mean_delay_per_task=1.0).delay.mean_delay_per_task == 1.0

    def test_alias_factory(self):
        # The package re-exports the one paper factory under the same name.
        import repro

        assert repro.paper_parameters is paper_parameters
        assert repro.paper_parameters().service_rates == (1.08, 1.86)

    def test_homogeneous_parameters(self):
        params = homogeneous_parameters(4, service_rate=2.0, failure_rate=0.1,
                                        recovery_rate=0.2)
        assert params.num_nodes == 4
        assert all(rate == 2.0 for rate in params.service_rates)
        assert params.node(2).name == "node-2"

    def test_homogeneous_rejects_zero_nodes(self):
        with pytest.raises(ValueError):
            homogeneous_parameters(0, service_rate=1.0)


class TestValidateWorkload:
    def test_accepts_valid_workloads(self, paper_params):
        assert validate_workload((100, 60), paper_params) == (100, 60)
        assert validate_workload([0, 0]) == (0, 0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            validate_workload((-1, 2))

    def test_rejects_fractional(self):
        with pytest.raises(ValueError):
            validate_workload((1.5, 2))

    def test_rejects_wrong_length(self, paper_params):
        with pytest.raises(ValueError):
            validate_workload((1, 2, 3), paper_params)

    @given(loads=st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, loads):
        assert validate_workload(loads) == tuple(loads)

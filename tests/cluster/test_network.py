"""Tests for the batch-transfer delay models and the batches on the network."""

import numpy as np
import pytest

from repro.cluster.network import sample_batch_delay
from repro.cluster.system import DistributedSystem
from repro.core.parameters import NodeParameters, SystemParameters, TransferDelayModel
from repro.core.policies import LBP1
from repro.core.policies.base import LoadBalancingPolicy, Transfer


def make_params(kind="exponential", per_task=0.02, overhead=0.0):
    return SystemParameters(
        nodes=(NodeParameters(1.0), NodeParameters(2.0)),
        delay=TransferDelayModel(
            mean_delay_per_task=per_task, fixed_overhead=overhead, kind=kind
        ),
    )


class TestSampleBatchDelay:
    def test_zero_tasks_is_zero_delay(self, rng):
        assert sample_batch_delay(TransferDelayModel(0.02), 0, rng) == 0.0

    def test_negative_count_rejected(self, rng):
        with pytest.raises(ValueError):
            sample_batch_delay(TransferDelayModel(0.02), -1, rng)

    def test_deterministic_kind_returns_mean(self, rng):
        model = TransferDelayModel(0.1, fixed_overhead=0.5, kind="deterministic")
        assert sample_batch_delay(model, 10, rng) == pytest.approx(1.5)

    def test_zero_delay_model(self, rng):
        model = TransferDelayModel(0.0)
        assert sample_batch_delay(model, 10, rng) == 0.0

    @pytest.mark.parametrize("kind", ["exponential", "erlang", "deterministic"])
    def test_all_kinds_have_matching_mean(self, kind, rng):
        model = TransferDelayModel(0.05, kind=kind)
        samples = np.array([sample_batch_delay(model, 20, rng) for _ in range(4000)])
        assert samples.mean() == pytest.approx(1.0, rel=0.1)

    def test_erlang_less_variable_than_exponential(self, rng):
        exponential = TransferDelayModel(0.05, kind="exponential")
        erlang = TransferDelayModel(0.05, kind="erlang")
        exp_samples = np.array([sample_batch_delay(exponential, 20, rng) for _ in range(3000)])
        erl_samples = np.array([sample_batch_delay(erlang, 20, rng) for _ in range(3000)])
        assert erl_samples.var() < exp_samples.var()


class TestNetwork:
    """Batches as the reference simulator puts them on the network."""

    def test_same_source_destination_rejected(self):
        class ToItself(LoadBalancingPolicy):
            name = "to-itself"

            def initial_transfers(self, workload, params):
                return [Transfer(0, 0, 1)]

        with pytest.raises(ValueError, match="same source and destination"):
            DistributedSystem(make_params(), ToItself(), (5, 0), seed=0)

    def test_delivery_after_delay(self):
        system = DistributedSystem(
            make_params(), LBP1(0.4, sender=0, receiver=1), (20, 0), seed=0,
            record_trace=True,
        )
        # The 8 shipped tasks are on the network, in no queue.
        assert system.queue_sizes() == (12, 0)
        assert system.tasks_outstanding == 20
        result = system.run()
        (record,) = result.transfer_records
        assert (record.source, record.destination, record.num_tasks) == (0, 1, 8)
        assert not record.in_flight
        assert record.started_at == 0.0
        assert record.arrived_at == pytest.approx(record.delay)
        (arrival,) = result.trace.events_of_kind("transfer_arrived")
        assert (arrival.time, arrival.node) == (record.arrived_at, 1)
        assert result.tasks_completed_per_node[1] == 8

    def test_mean_delay_scales_with_batch_size(self):
        rng = np.random.default_rng(3)
        model = make_params(per_task=0.02).delay_model(0, 1)
        small = np.mean([sample_batch_delay(model, 10, rng) for _ in range(3000)])
        large = np.mean([sample_batch_delay(model, 100, rng) for _ in range(3000)])
        assert large / small == pytest.approx(10.0, rel=0.15)

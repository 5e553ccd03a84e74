"""Tests for the transfer network and its delay models."""

import numpy as np
import pytest

from repro.cluster.network import Network, sample_batch_delay
from repro.cluster.task import Task, TaskState
from repro.core.parameters import NodeParameters, SystemParameters, TransferDelayModel
from repro.sim.engine import Environment


def make_params(kind="exponential", per_task=0.02, overhead=0.0):
    return SystemParameters(
        nodes=(NodeParameters(1.0), NodeParameters(2.0)),
        delay=TransferDelayModel(
            mean_delay_per_task=per_task, fixed_overhead=overhead, kind=kind
        ),
    )


def make_tasks(count):
    return [Task(task_id=i, origin=0) for i in range(count)]


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
    def make_network(self, env, rng, params=None, delivered=None):
        params = params or make_params()
        log = delivered if delivered is not None else []
        network = Network(
            env=env,
            params=params,
            rng=rng,
            deliver=lambda dst, batch: log.append((env.now, dst, len(batch))),
        )
        return network, log

    def test_empty_batch_is_ignored(self, env, rng):
        network, log = self.make_network(env, rng)
        assert network.transfer(0, 1, []) is None
        assert network.records == []

    def test_same_source_destination_rejected(self, env, rng):
        network, _ = self.make_network(env, rng)
        with pytest.raises(ValueError):
            network.transfer(0, 0, make_tasks(1))

    def test_delivery_after_delay(self, env, rng):
        network, log = self.make_network(env, rng)
        record = network.transfer(0, 1, make_tasks(5))
        assert network.tasks_in_transit == 5
        env.run()
        assert network.tasks_in_transit == 0
        assert log == [(pytest.approx(record.delay), 1, 5)]
        assert record.arrived_at == pytest.approx(record.delay)
        assert not record.in_flight

    def test_tasks_marked_in_transit_then_delivered(self, env, rng):
        delivered_tasks = []
        params = make_params()
        network = Network(
            env, params, rng, deliver=lambda dst, batch: delivered_tasks.extend(batch)
        )
        tasks = make_tasks(3)
        network.transfer(0, 1, tasks)
        assert all(task.state is TaskState.IN_TRANSIT for task in tasks)
        env.run()
        assert all(task.state is TaskState.IN_TRANSIT for task in delivered_tasks)
        # the receiving node (not the network) marks delivery; here we just
        # verify the same objects came out
        assert delivered_tasks == tasks

    def test_total_transferred_accumulates(self, env, rng):
        network, _ = self.make_network(env, rng)
        network.transfer(0, 1, make_tasks(2))
        network.transfer(1, 0, make_tasks(3), reason="failure-compensation")
        env.run()
        assert network.total_transferred == 5
        assert [record.reason for record in network.records] == [
            "initial",
            "failure-compensation",
        ]

    def test_pairwise_delay_override_used(self, env, rng):
        params = make_params(per_task=0.02).with_pairwise_delays(
            [((0, 1), TransferDelayModel(10.0, kind="deterministic"))]
        )
        network, log = self.make_network(env, rng, params=params)
        network.transfer(0, 1, make_tasks(2))
        env.run()
        assert env.now == pytest.approx(20.0)

    def test_mean_delay_scales_with_batch_size(self, env):
        rng = np.random.default_rng(3)
        params = make_params(per_task=0.02)
        network = Network(env, params, rng, deliver=lambda dst, batch: None)
        small = np.mean([network.sample_delay(0, 1, 10) for _ in range(3000)])
        large = np.mean([network.sample_delay(0, 1, 100) for _ in range(3000)])
        assert large / small == pytest.approx(10.0, rel=0.15)


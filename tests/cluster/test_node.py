"""Tests for the compute-element service process and failure preemption."""

import numpy as np
import pytest

from repro.cluster.node import ComputeElement, NodeState
from repro.cluster.task import Task, TaskState
from repro.core.parameters import NodeParameters
from repro.sim.engine import Environment


def make_node(env, rng, service_rate=1.0, failure_rate=0.0, recovery_rate=0.0,
              preemption="resume", provider=None, completed=None):
    params = NodeParameters(
        service_rate=service_rate, failure_rate=failure_rate, recovery_rate=recovery_rate
    )
    return ComputeElement(
        env=env,
        index=0,
        params=params,
        rng=rng,
        preemption=preemption,
        on_task_completed=completed,
        service_time_provider=provider,
    )


def make_tasks(count, origin=0):
    return [Task(task_id=i, origin=origin) for i in range(count)]


class TestConstruction:
    def test_invalid_preemption_mode_rejected(self, env, rng):
        with pytest.raises(ValueError):
            make_node(env, rng, preemption="abort")

    def test_initial_state_up(self, env, rng):
        node = make_node(env, rng)
        assert node.is_up
        assert node.state is NodeState.UP
        assert node.queue_length == 0

    def test_initially_down_node(self, env, rng):
        params = NodeParameters(service_rate=1.0, recovery_rate=0.5, initially_up=False)
        node = ComputeElement(env, 0, params, rng)
        assert not node.is_up


class TestServiceProcess:
    def test_processes_all_tasks(self, env, rng):
        done = []
        node = make_node(env, rng, service_rate=2.0,
                         completed=lambda n, t: done.append(t.task_id))
        node.assign_initial(make_tasks(5))
        env.run()
        assert sorted(done) == [0, 1, 2, 3, 4]
        assert node.tasks_completed == 5
        assert node.queue_length == 0

    def test_fifo_service_order(self, env, rng):
        done = []
        node = make_node(env, rng, completed=lambda n, t: done.append(t.task_id))
        node.assign_initial(make_tasks(4))
        env.run()
        assert done == [0, 1, 2, 3]

    def test_deterministic_provider_gives_exact_makespan(self, env, rng):
        node = make_node(env, rng, provider=lambda task: 2.0)
        node.assign_initial(make_tasks(3))
        env.run()
        assert env.now == pytest.approx(6.0)

    def test_tasks_received_later_are_processed(self, env, rng):
        node = make_node(env, rng, provider=lambda task: 1.0)
        node.assign_initial(make_tasks(1))

        def feeder(env, node):
            yield env.timeout(5.0)
            extra = Task(task_id=99, origin=1)
            extra.mark_in_transit()
            node.receive([extra])

        env.process(feeder(env, node))
        env.run()
        assert node.tasks_completed == 2
        assert env.now == pytest.approx(6.0)

    def test_busy_time_accumulates(self, env, rng):
        node = make_node(env, rng, provider=lambda task: 1.5)
        node.assign_initial(make_tasks(2))
        env.run()
        assert node.busy_time == pytest.approx(3.0)

    def test_mean_service_time_statistics(self, env, rng):
        node = make_node(env, rng, service_rate=2.0)
        node.assign_initial(make_tasks(1000))
        env.run()
        # 1000 exponential(rate 2) tasks -> makespan close to 500.
        assert env.now == pytest.approx(500.0, rel=0.1)


class TestTakeTasks:
    def test_takes_from_the_tail(self, env, rng):
        node = make_node(env, rng)
        node.assign_initial(make_tasks(5))
        taken = node.take_tasks(2)
        assert [t.task_id for t in taken] == [4, 3]
        assert node.queue_length == 3

    def test_never_takes_more_than_waiting(self, env, rng):
        node = make_node(env, rng)
        node.assign_initial(make_tasks(3))
        assert len(node.take_tasks(10)) == 3
        assert node.queue_length == 0

    def test_take_zero_returns_empty(self, env, rng):
        node = make_node(env, rng)
        node.assign_initial(make_tasks(3))
        assert node.take_tasks(0) == []

    def test_negative_count_rejected(self, env, rng):
        node = make_node(env, rng)
        with pytest.raises(ValueError):
            node.take_tasks(-1)

    def test_in_service_task_is_not_taken(self, env, rng):
        node = make_node(env, rng, provider=lambda task: 10.0)
        node.assign_initial(make_tasks(3))
        env.run(until=1.0)  # first task now in service
        taken = node.take_tasks(10)
        assert len(taken) == 2
        assert node.queue_length == 1  # the in-service task remains


class TestFailureRecovery:
    def test_fail_sets_state_down(self, env, rng):
        node = make_node(env, rng, failure_rate=0.1, recovery_rate=0.1)
        node.fail()
        assert not node.is_up
        assert node.failures == 1

    def test_double_fail_rejected(self, env, rng):
        node = make_node(env, rng, failure_rate=0.1, recovery_rate=0.1)
        node.fail()
        with pytest.raises(RuntimeError):
            node.fail()

    def test_recover_requires_down(self, env, rng):
        node = make_node(env, rng, failure_rate=0.1, recovery_rate=0.1)
        with pytest.raises(RuntimeError):
            node.recover()

    def test_no_processing_while_down(self, env, rng):
        node = make_node(env, rng, failure_rate=0.001, recovery_rate=0.001,
                         provider=lambda task: 1.0)
        node.assign_initial(make_tasks(3))

        def controller(env, node):
            yield env.timeout(0.5)
            node.fail()
            yield env.timeout(10.0)
            node.recover()

        env.process(controller(env, node))
        env.run()
        # 0.5 of work done, then a 10 s outage, then 2.5 of work remaining
        # (the preempted task resumes its residual 0.5).
        assert env.now == pytest.approx(13.0)
        assert node.tasks_completed == 3

    def test_restart_semantics_redraws_service_time(self, env, rng):
        calls = []

        def provider(task):
            calls.append(task.task_id)
            return 1.0

        node = make_node(env, rng, failure_rate=0.001, recovery_rate=0.001,
                         preemption="restart", provider=provider)
        node.assign_initial(make_tasks(1))

        def controller(env, node):
            yield env.timeout(0.5)
            node.fail()
            yield env.timeout(2.0)
            node.recover()

        env.process(controller(env, node))
        env.run()
        # The provider is consulted twice: once initially, once after restart.
        assert calls == [0, 0]
        assert env.now == pytest.approx(3.5)

    def test_failure_while_idle_is_harmless(self, env, rng):
        node = make_node(env, rng, failure_rate=0.001, recovery_rate=0.001,
                         provider=lambda task: 1.0)

        def controller(env, node):
            yield env.timeout(1.0)
            node.fail()
            yield env.timeout(1.0)
            node.recover()
            task = Task(task_id=0, origin=1)
            task.mark_in_transit()
            node.receive([task])

        env.process(controller(env, node))
        env.run()
        assert node.tasks_completed == 1
        assert env.now == pytest.approx(3.0)

    def test_tasks_received_while_down_wait_for_recovery(self, env, rng):
        node = make_node(env, rng, failure_rate=0.001, recovery_rate=0.001,
                         provider=lambda task: 1.0)

        def controller(env, node):
            yield env.timeout(0.0)
            node.fail()
            task = Task(task_id=0, origin=1)
            task.mark_in_transit()
            node.receive([task])
            yield env.timeout(4.0)
            node.recover()

        env.process(controller(env, node))
        env.run()
        assert node.tasks_completed == 1
        assert env.now == pytest.approx(5.0)


"""Tests for the event primitives of the DES kernel."""

import pytest

from repro.sim.engine import Environment
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.exceptions import SimulationError


class TestEventLifecycle:
    def test_new_event_is_untriggered(self, env):
        event = env.event()
        assert not event.triggered
        assert not event.processed
        assert event.ok

    def test_value_unavailable_before_trigger(self, env):
        event = env.event()
        with pytest.raises(SimulationError):
            _ = event.value

    def test_succeed_sets_value(self, env):
        event = env.event()
        event.succeed(42)
        assert event.triggered
        assert event.value == 42

    def test_succeed_twice_raises(self, env):
        event = env.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_requires_exception(self, env):
        event = env.event()
        with pytest.raises(TypeError):
            event.fail("not an exception")

    def test_fail_records_exception(self, env):
        event = env.event()
        error = RuntimeError("boom")
        event.fail(error)
        assert event.triggered
        assert not event.ok
        assert event.value is error

    def test_fail_after_trigger_raises(self, env):
        event = env.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.fail(RuntimeError())

    def test_processed_after_step(self, env):
        event = env.event()
        event.succeed("done")
        env.run()
        assert event.processed

    def test_defuse_marks_failure_handled(self, env):
        event = env.event()
        assert not event.defused()
        event.defuse()
        assert event.defused()

    def test_unhandled_failure_raises_from_run(self, env):
        event = env.event()
        event.fail(ValueError("unhandled"))
        with pytest.raises(ValueError, match="unhandled"):
            env.run()

    def test_defused_failure_does_not_raise(self, env):
        event = env.event()
        event.fail(ValueError("handled"))
        event.defuse()
        env.run()  # must not raise


class TestTimeout:
    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1.0)

    def test_zero_delay_fires_immediately(self, env):
        timeout = env.timeout(0.0, value="now")
        env.run()
        assert timeout.processed
        assert env.now == 0.0

    def test_delay_advances_clock(self, env):
        env.timeout(3.5)
        env.run()
        assert env.now == pytest.approx(3.5)

    def test_timeout_value_carried(self, env):
        timeout = env.timeout(1.0, value={"payload": 1})
        env.run()
        assert timeout.value == {"payload": 1}

    def test_delay_property(self, env):
        assert env.timeout(2.5).delay == 2.5

    def test_timeouts_fire_in_order(self, env):
        order = []
        first = env.timeout(1.0)
        second = env.timeout(2.0)
        first.callbacks.append(lambda e: order.append("first"))
        second.callbacks.append(lambda e: order.append("second"))
        env.run()
        assert order == ["first", "second"]

    def test_simultaneous_timeouts_fifo(self, env):
        order = []
        a = env.timeout(1.0)
        b = env.timeout(1.0)
        a.callbacks.append(lambda e: order.append("a"))
        b.callbacks.append(lambda e: order.append("b"))
        env.run()
        assert order == ["a", "b"]

    def test_urgent_event_preempts_earlier_timeout_at_same_time(self, env):
        # A process start is urgent: it runs before a zero-delay timeout
        # scheduled ahead of it.
        order = []
        env.timeout(0).callbacks.append(lambda e: order.append("timeout"))

        def proc():
            order.append("process")
            yield env.timeout(0)

        env.process(proc())
        env.run()
        assert order == ["process", "timeout"]


class TestConditions:
    def test_any_of_triggers_on_first(self, env):
        def proc(env):
            result = yield env.timeout(1, "x") | env.timeout(5, "y")
            return list(result.values())

        process = env.process(proc(env))
        env.run()
        assert process.value == ["x"]

    def test_all_of_waits_for_all(self, env):
        def proc(env):
            result = yield env.timeout(1, "x") & env.timeout(5, "y")
            return sorted(result.values())

        process = env.process(proc(env))
        env.run()
        assert process.value == ["x", "y"]
        assert env.now == pytest.approx(5.0)

    def test_all_of_empty_list_triggers_immediately(self, env):
        condition = AllOf(env, [])
        env.run()
        assert condition.processed
        assert condition.value == {}

    def test_any_of_empty_list_triggers_immediately(self, env):
        condition = AnyOf(env, [])
        env.run()
        assert condition.processed

    def test_condition_with_already_processed_event(self, env):
        timeout = env.timeout(0.0, "early")
        env.run()
        condition = AllOf(env, [timeout])
        env.run()
        assert condition.processed
        assert condition.value[timeout] == "early"

    def test_condition_mixing_environments_rejected(self, env):
        other = Environment()
        with pytest.raises(SimulationError):
            AllOf(env, [env.event(), other.event()])

    def test_condition_propagates_failure(self, env):
        failing = env.event()
        failing.fail(RuntimeError("inner"))

        def proc(env, failing):
            try:
                yield env.all_of([failing, env.timeout(1)])
            except RuntimeError as error:
                return str(error)

        process = env.process(proc(env, failing))
        env.run()
        assert process.value == "inner"

    def test_env_helpers_build_conditions(self, env):
        assert isinstance(env.all_of([env.event()]), AllOf)
        assert isinstance(env.any_of([env.event()]), AnyOf)

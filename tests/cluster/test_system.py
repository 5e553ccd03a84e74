"""Tests for the full simulated distributed system."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.system import (
    DistributedSystem,
    IncompleteSimulationError,
    SimulationResult,
    simulate_once,
)
from repro.cluster.workload import Workload
from repro.core.parameters import (
    NodeParameters,
    SystemParameters,
    TransferDelayModel,
    paper_parameters,
)
from repro.core.policies import LBP1, LBP2, NoBalancing, SendAllOnFailure
from repro.core.policies.base import LoadBalancingPolicy, Transfer


class TestBasicRuns:
    def test_empty_workload_completes_instantly(self, fast_params):
        result = simulate_once(fast_params, NoBalancing(), (0, 0), seed=0)
        assert result.completion_time == 0.0
        assert result.total_completed == 0

    def test_all_tasks_completed(self, fast_params):
        result = simulate_once(fast_params, NoBalancing(), (20, 10), seed=1)
        assert result.total_completed == 30
        assert result.completion_time > 0

    def test_workload_node_count_mismatch_rejected(self, fast_params):
        with pytest.raises(ValueError):
            DistributedSystem(fast_params, NoBalancing(), (10, 10, 10), seed=0)

    def test_reproducible_given_seed(self, fast_params):
        a = simulate_once(fast_params, LBP1(0.4), (30, 10), seed=42).completion_time
        b = simulate_once(fast_params, LBP1(0.4), (30, 10), seed=42).completion_time
        assert a == b

    def test_different_seeds_differ(self, fast_params):
        a = simulate_once(fast_params, LBP1(0.4), (30, 10), seed=1).completion_time
        b = simulate_once(fast_params, LBP1(0.4), (30, 10), seed=2).completion_time
        assert a != b

    def test_unit_sizes_build_no_size_stream(self, fast_params):
        system = DistributedSystem(fast_params, NoBalancing(), (5, 5), seed=0)
        assert "workload.sizes" not in system.streams

    def test_each_stream_is_built_at_its_first_draw(self):
        # No failure clock and no transfer: only the service streams.
        quiet = DistributedSystem(
            paper_parameters(with_failures=False), NoBalancing(), (5, 5), seed=0
        )
        quiet.run()
        assert sorted(quiet.streams.names()) == ["node-0.service", "node-1.service"]
        busy = DistributedSystem(paper_parameters(), LBP1(0.4), (40, 20), seed=0)
        busy.run()
        assert sorted(busy.streams.names()) == [
            "network.delay",
            "node-0.failure",
            "node-0.service",
            "node-1.failure",
            "node-1.service",
        ]

    def test_unknown_preemption_mode_rejected(self, fast_params):
        with pytest.raises(ValueError, match="preemption"):
            DistributedSystem(fast_params, NoBalancing(), (5, 5), preemption="drop")

    def test_accepts_workload_object(self, fast_params):
        result = simulate_once(fast_params, NoBalancing(), Workload((5, 5)), seed=0)
        assert result.total_tasks == 10

    def test_result_fields_consistent(self, fast_params):
        result = simulate_once(fast_params, LBP1(0.5), (25, 5), seed=3)
        assert isinstance(result, SimulationResult)
        assert result.total_tasks == 30
        assert sum(result.tasks_completed_per_node) == 30
        assert result.policy_name == "LBP-1"
        assert result.workload == (25, 5)
        assert all(b >= 0 for b in result.busy_time_per_node)
        assert 0.0 <= result.utilisation(0) <= 1.0


class TestPolicyExecution:
    def test_no_balancing_transfers_nothing(self, fast_params):
        result = simulate_once(fast_params, NoBalancing(), (20, 0), seed=0)
        assert result.initial_transfers == []
        assert result.total_transferred == 0

    def test_lbp1_initial_transfer_size(self, fast_params):
        result = simulate_once(
            fast_params, LBP1(0.5, sender=0, receiver=1), (20, 0), seed=0
        )
        assert len(result.initial_transfers) == 1
        assert result.initial_transfers[0].num_tasks == 10
        assert result.total_transferred == 10

    def test_lbp1_gain_zero_transfers_nothing(self, fast_params):
        result = simulate_once(
            fast_params, LBP1(0.0, sender=0, receiver=1), (20, 0), seed=0
        )
        assert result.initial_transfers == []

    def test_lbp2_compensates_on_failures(self):
        # High failure rate (to guarantee failures during the run) and slow
        # recovery (so the eq. (8) compensation size is at least one task).
        params = SystemParameters(
            nodes=(
                NodeParameters(2.0, failure_rate=0.5, recovery_rate=0.25),
                NodeParameters(3.0, failure_rate=0.5, recovery_rate=0.25),
            ),
            delay=TransferDelayModel(0.01),
        )
        result = simulate_once(params, LBP2(1.0), (60, 10), seed=5)
        reasons = {record.reason for record in result.transfer_records}
        assert result.total_failures > 0
        assert "failure-compensation" in reasons

    def test_send_all_on_failure_moves_whole_queue(self):
        params = SystemParameters(
            nodes=(
                NodeParameters(1.0, failure_rate=1.0, recovery_rate=0.2),
                NodeParameters(5.0, failure_rate=0.001, recovery_rate=1.0),
            ),
            delay=TransferDelayModel(0.001),
        )
        result = simulate_once(params, SendAllOnFailure(), (50, 0), seed=2)
        compensation = [
            record
            for record in result.transfer_records
            if record.reason == "failure-compensation"
        ]
        assert compensation, "the failing node should have shipped its queue"
        assert result.total_completed == 50

    def test_failure_time_transfer_from_another_node_rejected(self, fast_params):
        class StealOnFailure(LoadBalancingPolicy):
            name = "steal"

            def initial_transfers(self, workload, params):
                return []

            def on_failure(self, failed_node, queue_sizes, params, time=0.0):
                return [Transfer(1 - failed_node, failed_node, 1)]

        with pytest.raises(ValueError, match="away from"):
            simulate_once(fast_params, StealOnFailure(), (200, 200), seed=0)

    def test_conservation_of_tasks(self, fast_params):
        """No tasks are created or lost by transfers, failures or recoveries."""
        result = simulate_once(fast_params, LBP2(1.0), (40, 20), seed=9)
        assert result.total_completed == 60


class TestTracing:
    def test_trace_disabled_by_default(self, fast_params):
        result = simulate_once(fast_params, NoBalancing(), (5, 5), seed=0)
        assert result.trace is None

    def test_trace_records_queues_and_completion(self, fast_params):
        system = DistributedSystem(
            fast_params, LBP1(0.4, sender=0, receiver=1), (20, 5), seed=0,
            record_trace=True,
        )
        result = system.run()
        assert result.trace is not None
        assert len(result.trace.queues[0]) > 0
        assert len(result.trace.queues[1]) > 0
        completions = result.trace.events_of_kind("completion")
        assert len(completions) == 1
        assert completions[0].time == pytest.approx(result.completion_time)

    def test_trace_queue_ends_at_zero(self, fast_params):
        system = DistributedSystem(
            fast_params, NoBalancing(), (10, 10), seed=1, record_trace=True
        )
        result = system.run()
        for node in (0, 1):
            values = result.trace.queues[node].values
            assert values[-1] == 0.0

    def test_failure_events_traced(self):
        params = SystemParameters(
            nodes=(
                NodeParameters(1.0, failure_rate=0.5, recovery_rate=1.0),
                NodeParameters(1.0, failure_rate=0.5, recovery_rate=1.0),
            ),
            delay=TransferDelayModel(0.01),
        )
        system = DistributedSystem(params, NoBalancing(), (30, 30), seed=3,
                                   record_trace=True)
        result = system.run()
        assert len(result.trace.failure_times()) == result.total_failures


class TestHorizon:
    def test_horizon_exceeded_raises(self, fast_params):
        system = DistributedSystem(fast_params, NoBalancing(), (1000, 1000), seed=0)
        with pytest.raises(IncompleteSimulationError):
            system.run(horizon=0.01)

    def test_horizon_large_enough_is_fine(self, fast_params):
        system = DistributedSystem(fast_params, NoBalancing(), (10, 10), seed=0)
        result = system.run(horizon=10_000.0)
        assert result.total_completed == 20


class TestStatisticalSanity:
    def test_single_reliable_node_mean_makespan(self):
        """With one working node and no transfers, E[T] = m / λ_d."""
        params = SystemParameters(
            nodes=(NodeParameters(4.0), NodeParameters(1.0)),
            delay=TransferDelayModel(0.0),
        )
        times = [
            simulate_once(params, NoBalancing(), (40, 0), seed=s).completion_time
            for s in range(150)
        ]
        assert np.mean(times) == pytest.approx(10.0, rel=0.08)

    def test_balancing_helps_unbalanced_workload(self, fast_params):
        """Moving load towards the idle node must reduce the mean makespan."""
        idle = [
            simulate_once(fast_params, NoBalancing(), (60, 0), seed=s).completion_time
            for s in range(60)
        ]
        balanced = [
            simulate_once(
                fast_params, LBP1(0.6, sender=0, receiver=1), (60, 0), seed=s
            ).completion_time
            for s in range(60)
        ]
        assert np.mean(balanced) < np.mean(idle)

    def test_preemption_modes_statistically_equivalent(self, fast_params):
        """Resume vs restart must not change the mean (exponential service)."""
        resume = [
            simulate_once(fast_params, NoBalancing(), (40, 40), seed=s,
                          preemption="resume").completion_time
            for s in range(80)
        ]
        restart = [
            simulate_once(fast_params, NoBalancing(), (40, 40), seed=s,
                          preemption="restart").completion_time
            for s in range(80)
        ]
        assert np.mean(resume) == pytest.approx(np.mean(restart), rel=0.15)


class TestPropertyBased:
    @given(
        m0=st.integers(min_value=0, max_value=40),
        m1=st.integers(min_value=0, max_value=40),
        gain=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_every_task_is_completed_exactly_once(self, m0, m1, gain, seed):
        params = SystemParameters(
            nodes=(
                NodeParameters(5.0, failure_rate=0.3, recovery_rate=0.6),
                NodeParameters(8.0, failure_rate=0.3, recovery_rate=0.5),
            ),
            delay=TransferDelayModel(0.01),
        )
        result = simulate_once(params, LBP1(gain), (m0, m1), seed=seed)
        assert result.total_completed == m0 + m1
        assert result.completion_time >= 0.0

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_lbp2_conserves_tasks_under_churn(self, seed):
        params = SystemParameters(
            nodes=(
                NodeParameters(5.0, failure_rate=0.5, recovery_rate=1.0),
                NodeParameters(8.0, failure_rate=0.5, recovery_rate=1.0),
            ),
            delay=TransferDelayModel(0.01),
        )
        result = simulate_once(params, LBP2(1.0), (30, 10), seed=seed)
        assert result.total_completed == 40

"""Rules of the test-bed emulation that the golden digests pin only as part
of whole runs (``test_testbed_stream.py``): the long-run rate of each
node's failure/recovery clock, the shared medium, what a decision sees, a
node that starts down, that a recovery never consults the policy, and how
a run stops and continues.
"""

from __future__ import annotations

import math

import pytest

from repro.core.parameters import NodeParameters, SystemParameters, TransferDelayModel
from repro.core.policies import LBP2, NoBalancing
from repro.core.policies.base import LoadBalancingPolicy, Transfer
from repro.sim.rng import RandomStreams
from repro.testbed.experiment import TestbedConfig, TestbedExperiment

CHURN = SystemParameters(
    nodes=(
        NodeParameters(1.5, failure_rate=0.1, recovery_rate=0.1),
        NodeParameters(1.0, failure_rate=0.1, recovery_rate=0.1),
    ),
    delay=TransferDelayModel(0.05),
)


class Recording(LoadBalancingPolicy):
    """Test-only policy: records what each decision sees, moves nothing."""

    name = "recording"

    def __init__(self):
        self.seen = []

    def initial_transfers(self, workload, params):
        self.seen.append(list(workload))
        return []


class RecordingFailures(LoadBalancingPolicy):
    """Test-only policy: records what each failure sees, moves nothing."""

    name = "recording-failures"

    def __init__(self):
        self.seen = []

    def initial_transfers(self, workload, params):
        return []

    def on_failure(self, failed_node, queue_sizes, params, time=0.0):
        self.seen.append((failed_node, list(queue_sizes)))
        return []


class Swap(LoadBalancingPolicy):
    """Test-only two-node policy: each node sends one task to the other."""

    name = "swap"

    def initial_transfers(self, workload, params):
        return [Transfer(0, 1, 1), Transfer(1, 0, 1)]


class RecoveryRaises(LoadBalancingPolicy):
    """Test-only policy whose ``on_recovery`` must never be called."""

    name = "recovery-raises"

    def initial_transfers(self, workload, params):
        return []

    def on_failure(self, failed_node, queue_sizes, params, time=0.0):
        return [Transfer(failed_node, 1 - failed_node, 2)]

    def on_recovery(self, recovered_node, queue_sizes, params, time=0.0):
        raise AssertionError("the test-bed consulted on_recovery")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_failures_per_unit_time_match_the_alternating_renewal_rate(seed):
    params = SystemParameters(
        nodes=(
            NodeParameters(1.0, failure_rate=0.5, recovery_rate=1.0),
            NodeParameters(1.0, failure_rate=0.2, recovery_rate=0.4),
        ),
    )
    config = TestbedConfig(resync_interval=None)
    result = TestbedExperiment(
        params, NoBalancing(), (3000, 3000), seed=seed, config=config
    ).run()
    elapsed = result.completion_time
    assert elapsed > 4000.0
    for node, failures in zip(params.nodes, result.failures_per_node):
        up, down = node.mean_time_to_failure, node.mean_recovery_time
        rate = node.failure_rate * node.recovery_rate / (node.failure_rate + node.recovery_rate)
        # Renewal central limit theorem for up/down cycles of mean
        # ``up + down`` and variance ``up**2 + down**2``; the tolerance is
        # four standard deviations of ``failures / elapsed``.
        sd = math.sqrt((up**2 + down**2) / (up + down) ** 3 / elapsed)
        assert failures / elapsed == pytest.approx(rate, abs=4 * sd)


def test_shared_medium_serialises_transfers():
    # Both nodes send one task at the same decision instant (0.1 s); each
    # batch holds the medium for exactly 50 s, so the second one arrives
    # at 100.1 s, not 50.1 s.
    params = SystemParameters(
        nodes=(NodeParameters(10.0), NodeParameters(10.0)),
        delay=TransferDelayModel(mean_delay_per_task=50.0, kind="deterministic"),
    )
    config = TestbedConfig(state_loss_probability=0.0, per_transfer_overhead=0.0)
    result = TestbedExperiment(params, Swap(), (20, 20), seed=3, config=config).run()
    assert result.initial_transfers == [Transfer(0, 1, 1), Transfer(1, 0, 1)]
    assert result.message_log.data_transfer_time == 100.0
    assert 100.1 < result.completion_time < 110.0


def test_a_decision_sees_the_peers_initial_counts_and_its_own_initial_count():
    # By the decision at 1.5 s the fast nodes have completed several
    # tasks; the policy still sees the initial counts.
    params = SystemParameters(nodes=(NodeParameters(8.0), NodeParameters(5.0)))
    policy = Recording()
    config = TestbedConfig(sync_wait=0.5, state_loss_probability=0.0)
    TestbedExperiment(params, policy, (20, 30), seed=1, config=config).run()
    assert policy.seen == [[20, 30], [20, 30]]


def test_a_node_that_heard_nothing_decides_after_round_9_with_zeros():
    params = SystemParameters(nodes=(NodeParameters(2.0),) * 3)
    policy = Recording()
    config = TestbedConfig(state_loss_probability=0.999999)
    result = TestbedExperiment(params, policy, (7, 3, 5), seed=2, config=config).run()
    assert policy.seen == [[7, 0, 0], [0, 3, 0], [0, 0, 5]]
    log = result.message_log
    assert log.state_messages_lost == log.state_messages_sent > 0


def test_a_state_packet_older_than_what_was_heard_is_ignored():
    # Node 1 never fails and never receives tasks, so each of its
    # broadcasts carries a queue size no larger than the one before.  State
    # packets take up to seconds while node 1 rebroadcasts every 0.2 s, so
    # many arrive out of order; node 0 must keep the newest it has heard.
    params = SystemParameters(
        nodes=(
            NodeParameters(1.0, failure_rate=2.0, recovery_rate=4.0),
            NodeParameters(1.0),
        ),
    )
    config = TestbedConfig(
        state_delay_mean=2.0, state_loss_probability=0.0, resync_interval=0.2
    )
    for seed in range(3):
        policy = RecordingFailures()
        TestbedExperiment(params, policy, (20, 60), seed=seed, config=config).run()
        heard = [sizes[1] for node, sizes in policy.seen if node == 0]
        # Node 0 reads 0 for node 1 until its first packet arrives.
        while heard and heard[0] == 0:
            heard.pop(0)
        assert len(heard) > 20
        assert heard == sorted(heard, reverse=True)


def test_a_node_that_starts_down_recovers_first():
    nodes = (
        NodeParameters(2.0, failure_rate=0.1, recovery_rate=0.2),
        NodeParameters(1.0, failure_rate=0.05, recovery_rate=0.1, initially_up=False),
        NodeParameters(0.5, failure_rate=0.02, recovery_rate=0.1),
    )
    params = SystemParameters(nodes=nodes)
    for seed in range(4):
        result = TestbedExperiment(params, LBP2(1.0), (10, 10, 10), seed=seed).run(
            horizon=10_000.0
        )
        assert sum(result.tasks_completed_per_node) == 30


def test_a_node_that_starts_down_and_cannot_fail_serves_after_its_down_time():
    nodes = (
        NodeParameters(1.0),
        NodeParameters(2.0, recovery_rate=0.1, initially_up=False),
        NodeParameters(1.0),
    )
    params = SystemParameters(nodes=nodes)
    down = float(RandomStreams(5).stream("testbed.node-1.failure").exponential(1 / 0.1))
    result = TestbedExperiment(params, NoBalancing(), (0, 6, 0), seed=5).run(
        horizon=10_000.0
    )
    assert result.tasks_completed_per_node == (0, 6, 0)
    assert result.failures_per_node == (0, 0, 0)
    assert result.completion_time > down


@pytest.mark.parametrize("interval", [0.0, -1.0])
def test_resync_interval_must_be_none_or_positive(interval):
    with pytest.raises(ValueError, match="resync_interval"):
        TestbedConfig(resync_interval=interval)
    TestbedConfig(resync_interval=None)


def test_a_recovery_never_consults_the_policy():
    for seed in range(4):
        result = TestbedExperiment(CHURN, RecoveryRaises(), (40, 30), seed=seed).run()
        assert sum(result.failures_per_node) > 0
        assert sum(result.tasks_completed_per_node) == 70


def test_a_negative_horizon_is_rejected():
    experiment = TestbedExperiment(CHURN, NoBalancing(), (5, 5), seed=0)
    with pytest.raises(ValueError):
        experiment.run(horizon=-1.0)
    assert sum(experiment.run().tasks_completed_per_node) == 10


def test_a_second_run_returns_the_same_result():
    experiment = TestbedExperiment(CHURN, LBP2(1.0), (40, 30), seed=1)
    assert experiment.run() is experiment.run(horizon=1.0)


def test_a_run_past_its_horizon_continues_where_it_stopped():
    experiment = TestbedExperiment(CHURN, LBP2(1.0), (40, 30), seed=1)
    with pytest.raises(RuntimeError, match="tasks outstanding"):
        experiment.run(horizon=5.0)
    resumed = experiment.run()
    fresh = TestbedExperiment(CHURN, LBP2(1.0), (40, 30), seed=1).run()
    assert resumed.completion_time == fresh.completion_time
    assert resumed.message_log == fresh.message_log
    assert resumed.compensation_transfers == fresh.compensation_transfers

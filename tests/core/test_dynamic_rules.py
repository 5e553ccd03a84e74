"""Rules of the open-system simulator that the golden digests pin only as
part of whole runs (``test_dynamic_stream.py``): the long-run rate of each
node's failure/recovery clock, how a failure-time episode executes the
policy's transfers, that a recovery never consults the policy, and where a
run stops.
"""

from __future__ import annotations

import math

import pytest

from repro.core.arrivals import ArrivalProcessConfig, DynamicSystem
from repro.core.parameters import NodeParameters, SystemParameters, TransferDelayModel
from repro.core.policies import NoBalancing
from repro.core.policies.base import LoadBalancingPolicy, Transfer
from repro.sim.rng import RandomStreams

TWO_NODES = SystemParameters(
    nodes=(
        NodeParameters(1.0, failure_rate=0.1, recovery_rate=0.2),
        NodeParameters(2.0, failure_rate=0.1, recovery_rate=0.2),
    ),
    delay=TransferDelayModel(0.02),
)

ARRIVALS = ArrivalProcessConfig(rate=0.2, mean_batch_size=10)


class FailureTransfers(LoadBalancingPolicy):
    """Test-only policy: a fixed list of failure-time transfers, nothing else."""

    name = "failure-transfers"

    def __init__(self, transfers):
        self._transfers = transfers  # failed node -> requested transfers

    def initial_transfers(self, workload, params):
        return []

    def on_failure(self, failed_node, queue_sizes, params, time=0.0):
        return self._transfers(failed_node)

    def on_recovery(self, recovered_node, queue_sizes, params, time=0.0):
        raise AssertionError("the open system never consults on_recovery")


def _run(policy, seed=5):
    return DynamicSystem(TWO_NODES, policy, ARRIVALS, seed=seed).run(500.0)


def _outcome(result):
    return (
        result.tasks_completed,
        result.failures_per_node,
        result.queue_lengths_at_end,
        result.completed_sojourn_times.tolist(),
    )


def test_failure_time_transfer_from_another_node_rejected():
    policy = FailureTransfers(lambda failed: [Transfer(1 - failed, failed, 1)])
    with pytest.raises(ValueError, match="failed node"):
        _run(policy)


def test_empty_failure_time_transfer_is_skipped():
    ship_all = _outcome(_run(FailureTransfers(lambda f: [Transfer(f, 1 - f, 1000)])))
    empty_first = FailureTransfers(
        lambda f: [Transfer(f, 1 - f, 0), Transfer(f, 1 - f, 1000)]
    )
    assert _outcome(_run(empty_first)) == ship_all
    assert _outcome(_run(NoBalancing())) != ship_all


def test_first_take_that_finds_the_queue_empty_ends_the_episode():
    # Were the episode to go on, the third transfer would be rejected.
    policy = FailureTransfers(
        lambda f: [Transfer(f, 1 - f, 1000), Transfer(f, 1 - f, 1), Transfer(1 - f, f, 1)]
    )
    ship_all = _outcome(_run(FailureTransfers(lambda f: [Transfer(f, 1 - f, 1000)])))
    assert _outcome(_run(policy)) == ship_all


def test_recovery_does_not_consult_the_policy():
    result = _run(FailureTransfers(lambda f: []))
    assert sum(result.failures_per_node) > 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_failures_per_unit_time_match_the_alternating_renewal_rate(seed):
    params = SystemParameters(
        nodes=(
            NodeParameters(1.0, failure_rate=0.5, recovery_rate=1.0),
            NodeParameters(1.0, failure_rate=0.2, recovery_rate=0.4),
        ),
    )
    horizon = 6000.0
    result = DynamicSystem(
        params, NoBalancing(), ArrivalProcessConfig(rate=0.01, mean_batch_size=1), seed=seed
    ).run(horizon)
    for node, failures in zip(params.nodes, result.failures_per_node):
        up, down = node.mean_time_to_failure, node.mean_recovery_time
        rate = node.failure_rate * node.recovery_rate / (node.failure_rate + node.recovery_rate)
        # Renewal central limit theorem for up/down cycles of mean
        # ``up + down`` and variance ``up**2 + down**2``; the tolerance is
        # four standard deviations of ``failures / horizon``.
        sd = math.sqrt((up**2 + down**2) / (up + down) ** 3 / horizon)
        assert failures / horizon == pytest.approx(rate, abs=4 * sd)


def test_an_event_at_the_horizon_is_not_processed():
    # The first job arrives after the first draw of ``dynamic.arrivals``.
    first = float(RandomStreams(9).stream("dynamic.arrivals").exponential(1 / ARRIVALS.rate))
    assert DynamicSystem(TWO_NODES, NoBalancing(), ARRIVALS, seed=9).run(first).jobs_arrived == 0
    later = DynamicSystem(TWO_NODES, NoBalancing(), ARRIVALS, seed=9).run(first * (1 + 1e-9))
    assert later.jobs_arrived == 1


def test_a_second_run_continues_the_realisation():
    policy = FailureTransfers(lambda f: [Transfer(f, 1 - f, 3)])
    system = DynamicSystem(TWO_NODES, policy, ARRIVALS, seed=4)
    system.run(200.0)
    resumed = system.run(500.0)
    assert _outcome(resumed) == _outcome(_run(policy, seed=4))
    assert resumed.jobs_arrived == system.jobs_arrived
    with pytest.raises(ValueError):
        system.run(300.0)

"""Golden digests of the test-bed emulation's random streams.

A :class:`~repro.testbed.experiment.TestbedExperiment` run is a pure
function of its root seed: it builds the named streams
``testbed.workload``, ``testbed.channel`` and ``testbed.node-<i>.failure``,
every stream takes its draws in a fixed order, and events at one instant
are handled in a fixed order (see the docstrings of
:mod:`repro.testbed.experiment`).  The digests below pin every
:class:`~repro.testbed.experiment.TestbedResult` field, or the error a run
raises, across the emulation's feature matrix.  The emulation's internals
may change only while every digest here holds; a changed digest means
changed results.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from repro.core.parameters import (
    NodeParameters,
    SystemParameters,
    TransferDelayModel,
    paper_parameters,
)
from repro.core.policies import (
    LBP1,
    LBP2,
    NoBalancing,
    ProportionalOneShot,
    SendAllOnFailure,
)
from repro.core.policies.base import LoadBalancingPolicy, Transfer
from repro.sim.rng import RandomStreams
from repro.testbed.experiment import TestbedConfig, TestbedExperiment

SEEDS = (0, 1, 2, 3)

PAPER = paper_parameters()
PAPER_WORKLOAD = (100, 60)

THREE_NODES = SystemParameters(
    nodes=(
        NodeParameters(service_rate=2.0, failure_rate=0.1, recovery_rate=0.2),
        NodeParameters(service_rate=1.0, failure_rate=0.05, recovery_rate=0.1),
        NodeParameters(service_rate=0.5, failure_rate=0.02, recovery_rate=0.1),
    ),
    delay=TransferDelayModel(mean_delay_per_task=0.02),
)

FOUR_NODES = SystemParameters(
    nodes=(
        NodeParameters(service_rate=1.5, failure_rate=0.05, recovery_rate=0.1),
        NodeParameters(service_rate=1.0, failure_rate=0.04, recovery_rate=0.2),
        NodeParameters(service_rate=0.8, failure_rate=0.02, recovery_rate=0.1),
        NodeParameters(service_rate=2.0, failure_rate=0.05, recovery_rate=0.05),
    ),
    delay=TransferDelayModel(mean_delay_per_task=0.03),
)

PAIRWISE_DELAYS = PAPER.with_pairwise_delays(
    (
        ((0, 1), TransferDelayModel(mean_delay_per_task=0.05, kind="erlang")),
        ((1, 0), TransferDelayModel(mean_delay_per_task=0.03, fixed_overhead=0.2)),
    )
)

#: Both nodes are down half of the time, so failures meet transfers in flight.
CHURN = SystemParameters(
    nodes=(
        NodeParameters(service_rate=1.5, failure_rate=0.1, recovery_rate=0.1),
        NodeParameters(service_rate=1.0, failure_rate=0.1, recovery_rate=0.1),
    ),
    delay=TransferDelayModel(0.05),
)


class Overreach(LoadBalancingPolicy):
    """Test-only policy that asks for more than the emulation can do.

    At ``t = 0`` it asks node 0 for an empty transfer, for two more tasks
    than it holds and then for one more (which finds no task), and node 1
    for half of its tasks; each node runs only its own transfers.  At a
    failure it asks another node for a task, asks for an empty transfer,
    for three more tasks than the failed node holds and then for one more,
    which finds the queue empty.  Its ``on_recovery`` would move tasks; the
    test-bed never consults it.
    """

    name = "overreach"

    def initial_transfers(self, workload, params):
        return [
            Transfer(0, 1, 0),
            Transfer(0, 1, workload[0] + 2),
            Transfer(0, 1, 1),
            Transfer(1, 0, workload[1] // 2),
        ]

    def on_failure(self, failed_node, queue_sizes, params, time=0.0):
        other = 1 - failed_node
        return [
            Transfer(other, failed_node, 1),
            Transfer(failed_node, other, 0),
            Transfer(failed_node, other, queue_sizes[failed_node] + 3),
            Transfer(failed_node, other, 1),
        ]

    def on_recovery(self, recovered_node, queue_sizes, params, time=0.0):
        other = 1 - recovered_node
        return [Transfer(other, recovered_node, queue_sizes[other])]


def _paper_delay(**model) -> SystemParameters:
    return replace(PAPER, delay=TransferDelayModel(**model))


#: name -> (params, policy, workload, config, horizon)
CASES = {
    "lbp1": (PAPER, LBP1(0.35, sender=0, receiver=1), PAPER_WORKLOAD, None, None),
    "lbp2": (PAPER, LBP2(1.0), PAPER_WORKLOAD, None, None),
    "lbp2-no-compensation": (
        PAPER, LBP2(1.0, compensate=False), PAPER_WORKLOAD, None, None,
    ),
    "none": (PAPER, NoBalancing(), PAPER_WORKLOAD, None, None),
    "send-all": (PAPER, SendAllOnFailure(), PAPER_WORKLOAD, None, None),
    # On two nodes ProportionalOneShot moves what LBP2(1.0, compensate=False)
    # moves, so it runs on three.
    "proportional": (THREE_NODES, ProportionalOneShot(), (60, 20, 10), None, None),
    "four-node": (FOUR_NODES, LBP2(1.0), (40, 10, 30, 0), None, None),
    "erlang-delay": (
        _paper_delay(mean_delay_per_task=0.05, kind="erlang"), LBP2(1.0),
        PAPER_WORKLOAD, None, None,
    ),
    "deterministic-delay": (
        _paper_delay(mean_delay_per_task=0.05, fixed_overhead=0.1, kind="deterministic"),
        LBP2(1.0), PAPER_WORKLOAD, TestbedConfig(per_transfer_overhead=0.2), None,
    ),
    "zero-delay": (
        _paper_delay(mean_delay_per_task=0.0), LBP2(1.0), PAPER_WORKLOAD,
        TestbedConfig(per_transfer_overhead=0.0), None,
    ),
    "pairwise-delays": (PAIRWISE_DELAYS, LBP2(1.0), PAPER_WORKLOAD, None, None),
    "instant-state": (
        PAPER, LBP1(0.35, sender=0, receiver=1), PAPER_WORKLOAD,
        TestbedConfig(state_delay_mean=0.0, sync_wait=0.0), None,
    ),
    "lossy-state": (
        THREE_NODES, LBP2(1.0), (60, 20, 10),
        TestbedConfig(state_loss_probability=0.9), None,
    ),
    "slow-sync": (
        PAPER, LBP1(0.35, sender=0, receiver=1), PAPER_WORKLOAD,
        TestbedConfig(sync_wait=0.5, resync_interval=0.25), None,
    ),
    "no-resync": (
        PAPER, LBP2(1.0), PAPER_WORKLOAD, TestbedConfig(resync_interval=None), None,
    ),
    "large-tasks": (
        PAPER, LBP2(1.0), PAPER_WORKLOAD, TestbedConfig(mean_task_size=2.5), None,
    ),
    "failure-free": (
        PAPER.without_failures(), LBP1(0.35, sender=0, receiver=1), PAPER_WORKLOAD,
        None, None,
    ),
    "empty": (PAPER, LBP2(1.0), (0, 0), None, None),
    "empty-under-horizon": (
        PAPER, LBP2(1.0), (0, 0), TestbedConfig(sync_wait=0.0), 10.0,
    ),
    "horizon-exceeded": (PAPER, LBP2(1.0), PAPER_WORKLOAD, None, 20.0),
    "overreach": (CHURN, Overreach(), (40, 30), None, None),
}

#: name -> sha256 of every run's result record (or raised error)
GOLDEN = {
    'deterministic-delay': '0399cfa901501462fecb9e742e21aa69f79dc5c281feec44cafc7e29f19cd62a',
    'empty': '3e6256739cf81ad4c6427bba1af008e1a90ba20f7d76610bbc661ddf5250d033',
    'empty-under-horizon': 'e2fd02dc9b74a685401d45028d294c498e77926ec69c6981dedfb6fb9fa02c29',
    'erlang-delay': '39c19e5c024c36e914cefbe1abe6ecdd59cb21892e11df8001aa96b5431b1e22',
    'failure-free': '19265f44a928c2239e9c4602be5e32d1da0732057f47a7b9165b8334bfa7ce9b',
    'four-node': '64b709f3a0bfa5fd3fd5a0fed4efcdcec662ffaf0a8e5c268d687db6d41d3006',
    'horizon-exceeded': 'd5f9ad8b9ea072fffcd4ddcde1eab9c60ead52aef6d1e9171dbd729930d55c34',
    'instant-state': '860f20586d5274e7d555c2f7db1a176d2d4ecd908cc5d5aefb75a0a3f50b597e',
    'large-tasks': '3a67d6e20c59f924dcd52e939f4fcef772c61af6ae914939083b3f692341b7c7',
    'lbp1': '676f4b7a75c50cc9054b16fcea62693a097a4935644cc0b40a3a61dc535ab587',
    'lbp2': '6ab610df6777d18ce4045f626b03f6dbed2e21a2ad9c3ad807bd3219669adf45',
    'lbp2-no-compensation': '4e7c5947b0f987b558fcb896e569870548e0c1d9875dc65e4714f0c93b8ec169',
    'lossy-state': 'f4084f592c54d18613ad5d0326dc29887a6e3e859bd4b08c55f3effa5c669356',
    'no-resync': 'cb13ebac2703bb6ba967bab1e0e563aa9959397d4877e6e8e306d808142b0350',
    'none': '8a656628e1bce7a83e87ff9a26763e4a799a5c4b8536eeffca3183a5da3fa9ac',
    'overreach': 'f6ec32bb402e2bb0d5d191d64e7a5f12ae6f3cf4ada261e925c192d9981bc6ae',
    'pairwise-delays': '8918b622f05dce29bad8f646f9d1964b09c650034c0bc296b37c1d8b47ff36f9',
    'proportional': 'a52da7dc1b671c5e095d32bb9e9e328cb9ac1c9fe065bf3517e0973a422f9c05',
    'send-all': 'c45b01f35ca3f50062de5813abbcab22f96003d398b7e6cdd436a8b97386342e',
    'slow-sync': '15436a2c3361edacf7f8b537f3668db9d6665419a3916cc969c5db17e48a2936',
    'zero-delay': '812faa4cda98e97cc7e002b82e03445b01f9b8a7ad7ef22cfbc1655480902dcd',
}


def _hex(value) -> str:
    return float(value).hex()


def _array_record(times: np.ndarray) -> list:
    return [str(times.dtype), list(times.shape), hashlib.sha256(times.tobytes()).hexdigest()]


def _transfers(transfers) -> list:
    return [[t.source, t.destination, t.num_tasks] for t in transfers]


def _result_record(result) -> dict:
    log = result.message_log
    return {
        "completion_time": _hex(result.completion_time),
        "policy_name": result.policy_name,
        "workload": list(result.workload),
        "tasks_completed_per_node": list(result.tasks_completed_per_node),
        "failures_per_node": list(result.failures_per_node),
        "execution_times_per_node": [
            [node, _array_record(times)]
            for node, times in result.execution_times_per_node.items()
        ],
        "message_log": {
            "state_messages_sent": log.state_messages_sent,
            "state_messages_lost": log.state_messages_lost,
            "data_messages_sent": log.data_messages_sent,
            "data_tasks_sent": log.data_tasks_sent,
            "data_transfer_time": _hex(log.data_transfer_time),
        },
        "initial_transfers": _transfers(result.initial_transfers),
        "compensation_transfers": _transfers(result.compensation_transfers),
    }


def run_case(name: str, seed: int):
    """Run one case for one root seed."""
    params, policy, workload, config, horizon = CASES[name]
    experiment = TestbedExperiment(params, policy, workload, seed=seed, config=config)
    return experiment.run(horizon=horizon)


def case_record(name: str, seed: int) -> dict:
    """The result record of one run, or the error it raised."""
    try:
        return _result_record(run_case(name, seed))
    except (RuntimeError, ValueError) as error:
        return {"error": type(error).__name__, "message": str(error)}


def digests(name: str) -> str:
    """sha256 of the records of every run over :data:`SEEDS`."""
    records = [case_record(name, seed) for seed in SEEDS]
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_testbed_stream_is_unchanged(name):
    assert digests(name) == GOLDEN[name], "test-bed results changed"


def test_one_lbp2_run_field_by_field():
    # The digest above, spelled out for one run so that a change shows
    # which field moved.
    result = run_case("lbp2", 0)
    assert result.completion_time == 99.52208955505874
    assert result.policy_name == "LBP-2"
    assert result.workload == (100, 60)
    assert result.tasks_completed_per_node == (68, 92)
    assert result.failures_per_node == (6, 4)
    log = result.message_log
    assert (log.state_messages_sent, log.state_messages_lost) == (53, 0)
    assert (log.data_messages_sent, log.data_tasks_sent) == (10, 86)
    assert log.data_transfer_time == 0.883850012497694
    assert _transfers(result.initial_transfers) == [[0, 1, 41]]
    assert _transfers(result.compensation_transfers) == [[0, 1, 3]] * 6 + [[1, 0, 9]] * 3
    times = result.execution_times_per_node
    assert list(times) == [0, 1]
    assert times[0].dtype == np.float64 and times[0].shape == (68,)
    assert times[0][:3].tolist() == [0.5812846451269978, 0.24300316444728629, 3.375973633544088]
    assert times[0][-1] == 2.518449398534992
    assert times[1].shape == (92,)
    assert times[1][:3].tolist() == [1.2409396508531692, 0.5276214828874131, 0.8183269706446041]
    assert times[1][-1] == 0.037176026301443434
    # Python scalars, not NumPy ones.
    assert {type(result.tasks_completed_per_node[0]), type(result.failures_per_node[0])} == {int}
    assert {type(result.completion_time), type(log.data_transfer_time)} == {float}


def test_an_empty_workload_completes_at_zero_after_the_first_broadcasts():
    for seed in SEEDS:
        result = run_case("empty", seed)
        assert result.completion_time == 0.0
        assert result.tasks_completed_per_node == (0, 0)
        assert result.message_log.state_messages_sent == 2
        assert [times.shape for times in result.execution_times_per_node.values()] == [(0,), (0,)]


def test_streams_argument_matches_the_seed():
    params, policy, workload, config, horizon = CASES["overreach"]
    by_seed = TestbedExperiment(params, policy, workload, seed=2, config=config).run()
    by_streams = TestbedExperiment(
        params, policy, workload, streams=RandomStreams(2), config=config
    ).run()
    assert _result_record(by_streams) == _result_record(by_seed)

"""Golden digests of the reference simulator's random stream.

A ``reference`` sample is a pure function of its seed: each realisation
builds a fixed set of named streams from its block-seed child, every
stream takes its draws in a fixed order, and the event heap breaks
same-time ties in a fixed order (see "Reference stream contract" in
``docs/backends.md``).  The digests below pin that contract across the
model's feature matrix.  The simulator's internals may change only while
every digest here holds; a changed digest means changed samples.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.backends.reference import ReferenceBackend
from repro.cluster.workload import Workload
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
from repro.sim.distributions import Uniform
from repro.sim.rng import RandomStreams

REALISATIONS = 8

PAPER = paper_parameters()

THREE_NODES = SystemParameters(
    nodes=(
        NodeParameters(service_rate=2.0, failure_rate=0.1, recovery_rate=0.2),
        NodeParameters(service_rate=1.0, failure_rate=0.05, recovery_rate=0.1),
        NodeParameters(service_rate=0.5, failure_rate=0.02, recovery_rate=0.1),
    ),
    delay=TransferDelayModel(mean_delay_per_task=0.02),
)

STARTS_DOWN = SystemParameters(
    nodes=(
        NodeParameters(
            service_rate=1.08, failure_rate=0.05, recovery_rate=0.1,
            initially_up=False,
        ),
        NodeParameters(service_rate=1.86, failure_rate=0.05, recovery_rate=0.05),
    ),
)

PAIRWISE_DELAYS = PAPER.with_pairwise_delays(
    (
        ((0, 1), TransferDelayModel(mean_delay_per_task=0.05, kind="erlang")),
        ((1, 0), TransferDelayModel(mean_delay_per_task=0.03)),
    )
)

#: Both nodes are down a third of the time, so they are often down together.
CHURN = SystemParameters(
    nodes=(
        NodeParameters(service_rate=1.08, failure_rate=0.1, recovery_rate=0.05),
        NodeParameters(service_rate=1.86, failure_rate=0.1, recovery_rate=0.05),
    ),
)

THREE_NODES_ONE_DOWN = SystemParameters(
    nodes=(
        NodeParameters(service_rate=2.0, failure_rate=0.1, recovery_rate=0.2),
        NodeParameters(
            service_rate=1.0, failure_rate=0.05, recovery_rate=0.1,
            initially_up=False,
        ),
        NodeParameters(service_rate=0.5, failure_rate=0.02, recovery_rate=0.1),
    ),
    delay=TransferDelayModel(mean_delay_per_task=0.02),
)


class Rescue(LoadBalancingPolicy):
    """Test-only two-node policy that moves whole queues on every event.

    At a failure it asks for more tasks than the failed node holds (and
    then for one more, which finds the queue empty).  At a recovery it
    takes every waiting task off the other node, which may still be down:
    the task that node was serving then travels with its residual.
    """

    name = "rescue"

    def initial_transfers(self, workload, params):
        return []

    def on_failure(self, failed_node, queue_sizes, params, time=0.0):
        other = 1 - failed_node
        return [
            Transfer(failed_node, other, queue_sizes[failed_node] + 3),
            Transfer(failed_node, other, 1),
        ]

    def on_recovery(self, recovered_node, queue_sizes, params, time=0.0):
        other = 1 - recovered_node
        return [Transfer(other, recovered_node, queue_sizes[other])]


class Evacuate(LoadBalancingPolicy):
    """Test-only two-node policy: a recovered node ships its whole queue.

    The policy acts before the recovered node restarts its service, so
    the task a failure preempted leaves with its residual.
    """

    name = "evacuate"

    def initial_transfers(self, workload, params):
        return []

    def on_recovery(self, recovered_node, queue_sizes, params, time=0.0):
        other = 1 - recovered_node
        return [Transfer(recovered_node, other, queue_sizes[recovered_node])]


#: name -> (params, policy, workload, run_batch keyword arguments)
CASES = {
    "lbp1": (PAPER, LBP1(0.4), (40, 20), {}),
    "lbp2": (PAPER, LBP2(1.0), (40, 20), {}),
    "lbp2-no-compensation": (PAPER, LBP2(1.0, compensate=False), (40, 20), {}),
    "none": (PAPER, NoBalancing(), (40, 20), {}),
    "proportional": (PAPER, ProportionalOneShot(), (40, 20), {}),
    "send-all": (PAPER, SendAllOnFailure(), (40, 20), {}),
    "restart": (PAPER, LBP1(0.4), (40, 20), {"preemption": "restart"}),
    "erlang-delay": (
        paper_parameters(delay_kind="erlang"), LBP2(1.0), (60, 0), {}
    ),
    "deterministic-delay": (
        paper_parameters(delay_kind="deterministic"), LBP2(1.0), (60, 0), {}
    ),
    "zero-delay": (
        paper_parameters(mean_delay_per_task=0.0), LBP2(1.0), (60, 0), {}
    ),
    "trace": (PAPER, LBP2(1.0), (40, 20), {"record_trace": True}),
    "horizon": (PAPER, LBP2(1.0), (40, 20), {"horizon": 10_000.0}),
    "three-node": (THREE_NODES, LBP2(1.0), (30, 10, 20), {}),
    "starts-down": (STARTS_DOWN, LBP1(0.3), (30, 20), {}),
    "failure-free": (
        paper_parameters(with_failures=False), LBP1(0.4), (40, 20), {}
    ),
    "pairwise-delays": (PAIRWISE_DELAYS, LBP2(1.0), (40, 20), {}),
    "rescue": (CHURN, Rescue(), (40, 20), {}),
    "evacuate": (CHURN, Evacuate(), (40, 20), {}),
    "lbp2-restart": (PAPER, LBP2(1.0), (40, 20), {"preemption": "restart"}),
    "zero-delay-trace": (
        paper_parameters(mean_delay_per_task=0.0), LBP2(1.0), (60, 0),
        {"record_trace": True},
    ),
    "three-node-starts-down": (THREE_NODES_ONE_DOWN, LBP1(0.4), (30, 10, 20), {}),
    "empty": (PAPER, LBP2(1.0), (0, 0), {"record_trace": True}),
}

#: name -> (sha256 of completion_times, sha256 of every realisation's result)
GOLDEN = {
    "deterministic-delay": (
        "83a3730d9219f3b006a2e015e848999d43a1a1669154bddc5c8dec25af5d76c3",
        "b22d6ecd03c074320f4d79f1b2f13a4d2278f1a11baae0739c515093af57b64d",
    ),
    "empty": (
        "f5a5fd42d16a20302798ef6ed309979b43003d2320d9f0e8ea9831a92759fb4b",
        "536c4f117d8a4e651a7875a5f66f270439b3a7defe308584f053a1b2568a9963",
    ),
    "erlang-delay": (
        "543e5a216573a153537896064ba9ac7914640f07e954694f20c799f4eb6c0cc2",
        "7bfd633b9d61a02bffee4c6514e2cffb72778289cc8538fa3ab4087d4ad1d393",
    ),
    "evacuate": (
        "5f9e003eddcb2806b9ea0e05b676cb5f721e323c6394869f5afdad5cdda35078",
        "40a142a6d7e0d02c70582b006f9646f9cb5d7617cdb6121f1070d4e0d2ded955",
    ),
    "failure-free": (
        "b6470df6621f4e4ef3dfcadef1f013a98810d5be8e76577bbbfc729fbe8a4f31",
        "b19afc3cf262debad162cb56e56b5fa816d5fe3015a2467a8f043a220c499691",
    ),
    "horizon": (
        "e3b92f7ccbfd1fe67afa11991be092ea6befa23899c783be937ec22c87a50211",
        "82b347da879242c2ecfedfa5476a9d1648fbcd9fe13168a64f983ed3ef7a2c70",
    ),
    "lbp1": (
        "fc503a3b9bda5b99b108e93b9c90cd9df743e22dc9c4b376cb3770f8c4c14f62",
        "b617d74fad0a3772b97dce1de74de6450e740e8c0ccfddd275acee8c0bca8d76",
    ),
    "lbp2": (
        "e3b92f7ccbfd1fe67afa11991be092ea6befa23899c783be937ec22c87a50211",
        "82b347da879242c2ecfedfa5476a9d1648fbcd9fe13168a64f983ed3ef7a2c70",
    ),
    "lbp2-no-compensation": (
        "4585c739d880b7fc425a334ee3460036159658598e230ae44acf4ebb954fa3bb",
        "cf400307b533a7eb2687ded43245a429f3b1021bee016f5a5ddf4017ff074575",
    ),
    "lbp2-restart": (
        "484bbedc9a719c46f8cea6a36478b91f9fbda9c3c32912b576fbcd9ed8f938fe",
        "d5f6ba01bddca7f6791194c0ba3152907468db71297f36d12fdbf55c5ee539c9",
    ),
    "none": (
        "2aca264d24faa2a189531502c4bca9d75c2b7206403f2a97908819d7ab75b6da",
        "8e143b03ada4c253029e83fc7e08dc150cabde5aef357040752c31c88af3f7e8",
    ),
    "pairwise-delays": (
        "e3b92f7ccbfd1fe67afa11991be092ea6befa23899c783be937ec22c87a50211",
        "07e22f1853e26da4887c6bdfb56e3ffe36fd85bbd55ba129c37878728f1927be",
    ),
    "proportional": (
        "4585c739d880b7fc425a334ee3460036159658598e230ae44acf4ebb954fa3bb",
        "cc0fcf753d7133de9d2dc2981017cf366c04b1b6256916ef58aa109cc8c560cc",
    ),
    "rescue": (
        "5a55f68ec592b05ef22ea205d391e8e6c0d5a3e4ccb1a0fb115a1486a5106f51",
        "2bc542f80284a4a3744e9618e463900311b0653594a9c79605c75d1396203fd3",
    ),
    "restart": (
        "236f5373f4d5171aa38a6d3af16d4cdf1de594cd410c07d8b13711598d3028e1",
        "014bff42ef296857ed864c964e51ac4599d59bd209d5ff6e0e89b675f6a47504",
    ),
    "send-all": (
        "e43bf484d7dcc78f33f644a06f0f50286280fca06e79e2b16744175032366e8a",
        "0db19bbb32eb33926049e53af8844c5568c4300e9c0787178aa73436f91b8332",
    ),
    "starts-down": (
        "0026c204897744a098253760cf632018e625fa1825f7f58649e5dd23e52f931c",
        "3753dd59d0595292752351e9735ce605a4cdec629c24e99dd4a68fae3e29fc0c",
    ),
    "three-node": (
        "bcdbdb3b515e170d3477510b791cc78ae62b7b12579afa5ca1d8d9f3ff24486d",
        "3a3d2bb189bb38a51e7c1e852f609e7cfe44f22686c203d1a1b249d18e5e714f",
    ),
    "three-node-starts-down": (
        "6b8f70902422123bd4d09eea4eba6dfc72f9f6911525995e38e0eea1208f40c6",
        "f79e081e12cd9ecb3cd6f84ad61b26f761616a4ba8f0f468fb8ba48870081dc4",
    ),
    "trace": (
        "e3b92f7ccbfd1fe67afa11991be092ea6befa23899c783be937ec22c87a50211",
        "5306d1f5c580ef8db89f04dda27797c75927d2f2e1098233993cfb3b2b07d898",
    ),
    "zero-delay": (
        "e3b92f7ccbfd1fe67afa11991be092ea6befa23899c783be937ec22c87a50211",
        "f2b7c6e8917f118d312ae692636d9e7cd1683a62e484bee24041e914cb9c439b",
    ),
    "zero-delay-trace": (
        "e3b92f7ccbfd1fe67afa11991be092ea6befa23899c783be937ec22c87a50211",
        "7ed173ae6f65c54e5f288330149735b875ac4563e8e3a07a547bb1cdc96f0ad2",
    ),
}


def _seed() -> np.random.SeedSequence:
    # A fresh sequence per run (spawning advances it), with a non-empty
    # spawn key like the engine's block seeds.
    return np.random.SeedSequence(20061, spawn_key=(3,))


def _hex(value) -> str:
    return float(value).hex()


def _result_record(result) -> dict:
    record = {
        "completion_time": _hex(result.completion_time),
        "policy_name": result.policy_name,
        "workload": list(result.workload),
        "total_tasks": result.total_tasks,
        "tasks_completed_per_node": list(result.tasks_completed_per_node),
        "failures_per_node": list(result.failures_per_node),
        "recoveries_per_node": list(result.recoveries_per_node),
        "busy_time_per_node": [_hex(b) for b in result.busy_time_per_node],
        "initial_transfers": [
            [t.source, t.destination, t.num_tasks] for t in result.initial_transfers
        ],
        "transfer_records": [
            [
                r.source,
                r.destination,
                r.num_tasks,
                _hex(r.started_at),
                _hex(r.delay),
                None if r.arrived_at is None else _hex(r.arrived_at),
                r.reason,
            ]
            for r in result.transfer_records
        ],
    }
    if result.trace is not None:
        record["queues"] = {
            str(node): [
                hashlib.sha256(queue.times.tobytes()).hexdigest(),
                hashlib.sha256(queue.values.tobytes()).hexdigest(),
            ]
            for node, queue in result.trace.queues.items()
        }
        record["events"] = [
            [_hex(e.time), e.kind, e.node, e.detail] for e in result.trace.events
        ]
    return record


def run_case(name: str):
    """Run one case through ``ReferenceBackend.run_batch``, keeping results."""
    params, policy, workload, kwargs = CASES[name]
    return ReferenceBackend().run_batch(
        params, policy, workload, REALISATIONS, seed=_seed(),
        keep_results=True, **kwargs,
    )


def digests(name: str):
    """``(completion-times digest, per-realisation results digest)``."""
    estimate = run_case(name)
    times = np.ascontiguousarray(estimate.completion_times, dtype=np.float64)
    records = [_result_record(result) for result in estimate.results]
    return (
        hashlib.sha256(times.tobytes()).hexdigest(),
        hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest(),
    )


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_reference_stream_is_unchanged(name):
    times_digest, results_digest = digests(name)
    expected_times, expected_results = GOLDEN[name]
    assert times_digest == expected_times, "completion times changed"
    assert results_digest == expected_results, "per-realisation results changed"


def test_one_lbp2_realisation_field_by_field():
    # The digest above, spelled out for one realisation so that a change
    # shows which field moved.
    result = run_case("lbp2").results[0]
    assert result.completion_time == 108.15693237069192
    assert result.tasks_completed_per_node == (22, 38)
    assert result.failures_per_node == (4, 2)
    assert result.recoveries_per_node == (4, 2)
    assert result.busy_time_per_node == (16.24062412529474, 20.96872535909864)
    assert [
        (r.source, r.destination, r.num_tasks, r.started_at, r.delay, r.reason)
        for r in result.transfer_records
    ] == [
        (0, 1, 18, 0.0, 0.32627251377625405, "initial"),
        (0, 1, 3, 1.3653537069692474, 0.056383694806305326, "failure-compensation"),
        (0, 1, 3, 6.548530209900413, 0.12273698711952147, "failure-compensation"),
        (1, 0, 9, 12.424925343432811, 0.018294594158653876, "failure-compensation"),
        (0, 1, 3, 40.972414562524534, 0.010005747649174192, "failure-compensation"),
    ]
    assert all(r.arrived_at == r.started_at + r.delay for r in result.transfer_records)
    # Python floats, not NumPy scalars.
    assert {type(b) for b in result.busy_time_per_node} == {float}
    assert {type(r.delay) for r in result.transfer_records} == {float}


def test_size_stream_draws_one_size_per_task_in_id_order():
    streams = RandomStreams(_seed()).spawn(2)[1]
    tasks = Workload((3, 2)).materialise(
        rng=streams.stream("workload.sizes"), size_distribution=Uniform(0.5, 1.5)
    )
    assert [(t.task_id, t.origin, t.size) for n in (0, 1) for t in tasks[n]] == [
        (0, 0, 0.8514634319105514),
        (1, 0, 1.1438117383521025),
        (2, 0, 1.1193777850331754),
        (3, 1, 0.6617800317552667),
        (4, 1, 0.9576689307171896),
    ]


def test_trace_case_records_queues():
    # The trace digest must cover real queue series, not empty ones.
    result = run_case("trace").results[0]
    assert all(len(queue) > 1 for queue in result.trace.queues.values())

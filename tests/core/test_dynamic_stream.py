"""Golden digests of the open-system simulator's random streams.

A :class:`~repro.core.arrivals.DynamicSystem` run is a pure function of its
root seed: it builds the named streams ``dynamic.arrivals``,
``dynamic.node-<i>.service``, ``dynamic.node-<i>.failure`` and
``dynamic.network``, every stream takes its draws in a fixed order, and
events at one instant are handled in a fixed order (see the docstrings
of :mod:`repro.core.arrivals` and its ``DynamicSystem``).  The digests below pin every
:class:`~repro.core.arrivals.DynamicRunResult` field across the model's
feature matrix.  The simulator's internals may change only while every
digest here holds; a changed digest means changed results.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.core.arrivals import ArrivalProcessConfig, DynamicSystem
from repro.core.parameters import NodeParameters, SystemParameters, TransferDelayModel
from repro.core.policies import (
    LBP1,
    LBP2,
    NoBalancing,
    ProportionalOneShot,
    SendAllOnFailure,
)
from repro.core.policies.base import LoadBalancingPolicy, Transfer
from repro.sim.rng import RandomStreams

SEEDS = (0, 1, 2, 3)


def _two_nodes(delay: TransferDelayModel = TransferDelayModel(0.02)) -> SystemParameters:
    return SystemParameters(
        nodes=(
            NodeParameters(service_rate=1.5, failure_rate=0.05, recovery_rate=0.1),
            NodeParameters(service_rate=1.0, failure_rate=0.04, recovery_rate=0.2),
        ),
        delay=delay,
    )


TWO_NODES = _two_nodes()

PAIRWISE_DELAYS = TWO_NODES.with_pairwise_delays(
    (
        ((0, 1), TransferDelayModel(mean_delay_per_task=0.05, kind="erlang")),
        ((1, 0), TransferDelayModel(mean_delay_per_task=0.03, fixed_overhead=0.2)),
    )
)

THREE_NODES = SystemParameters(
    nodes=(
        NodeParameters(service_rate=1.5, failure_rate=0.05, recovery_rate=0.1),
        NodeParameters(service_rate=1.0, failure_rate=0.05, recovery_rate=0.05),
        NodeParameters(service_rate=0.5, failure_rate=0.02, recovery_rate=0.1),
    ),
    delay=TransferDelayModel(mean_delay_per_task=0.05),
)

THREE_NODES_ONE_DOWN = THREE_NODES.with_nodes(
    (
        THREE_NODES.node(0),
        NodeParameters(
            service_rate=1.0, failure_rate=0.05, recovery_rate=0.05, initially_up=False
        ),
        THREE_NODES.node(2),
    )
)

#: Both nodes are down half of the time, so they are often down together.
CHURN = SystemParameters(
    nodes=(
        NodeParameters(service_rate=1.5, failure_rate=0.1, recovery_rate=0.1),
        NodeParameters(service_rate=1.0, failure_rate=0.1, recovery_rate=0.1),
    ),
    delay=TransferDelayModel(0.02),
)


class Drain(LoadBalancingPolicy):
    """Test-only two-node policy that empties queues at every event.

    At every arrival it asks to ship two more tasks than node 0 holds to
    node 1, so an idle node 0 keeps no task that just arrived, and a task
    a failure preempted on a down node 0 leaves with its residual.  At a
    failure it asks for more tasks than the failed node holds, then for
    one more, which finds the queue empty.  Its ``on_recovery`` would move
    tasks; the open system never consults it.
    """

    name = "drain"

    def initial_transfers(self, workload, params):
        return [Transfer(0, 1, workload[0] + 2)]

    def on_failure(self, failed_node, queue_sizes, params, time=0.0):
        other = 1 - failed_node
        return [
            Transfer(failed_node, other, queue_sizes[failed_node] + 3),
            Transfer(failed_node, other, 1),
        ]

    def on_recovery(self, recovered_node, queue_sizes, params, time=0.0):
        other = 1 - recovered_node
        return [Transfer(other, recovered_node, queue_sizes[other])]


ARRIVALS = ArrivalProcessConfig(rate=0.12, mean_batch_size=8)

#: name -> (params, policy, arrivals, horizon)
CASES = {
    "lbp1": (TWO_NODES, LBP1(0.5), ARRIVALS, 400.0),
    "lbp2": (TWO_NODES, LBP2(1.0), ARRIVALS, 400.0),
    "lbp2-no-compensation": (TWO_NODES, LBP2(1.0, compensate=False), ARRIVALS, 400.0),
    "none": (TWO_NODES, NoBalancing(), ARRIVALS, 400.0),
    # On two nodes ProportionalOneShot moves what LBP2(1.0, compensate=False)
    # moves, so it runs on three.
    "proportional": (THREE_NODES, ProportionalOneShot(), ARRIVALS, 400.0),
    "send-all": (TWO_NODES, SendAllOnFailure(), ARRIVALS, 400.0),
    "fastest": (
        TWO_NODES, LBP2(1.0),
        ArrivalProcessConfig(rate=0.12, mean_batch_size=8, assignment="fastest"), 400.0,
    ),
    "slowest": (
        TWO_NODES, LBP1(0.8),
        ArrivalProcessConfig(rate=0.12, mean_batch_size=8, assignment="slowest"), 400.0,
    ),
    "erlang-delay": (
        _two_nodes(TransferDelayModel(0.05, kind="erlang")), LBP2(1.0), ARRIVALS, 400.0,
    ),
    "deterministic-delay": (
        _two_nodes(TransferDelayModel(0.05, fixed_overhead=0.1, kind="deterministic")),
        LBP2(1.0), ARRIVALS, 400.0,
    ),
    "zero-delay": (_two_nodes(TransferDelayModel(0.0)), LBP2(1.0), ARRIVALS, 400.0),
    "pairwise-delays": (PAIRWISE_DELAYS, LBP2(1.0), ARRIVALS, 400.0),
    "three-node": (THREE_NODES, LBP2(1.0), ARRIVALS, 400.0),
    "three-node-starts-down": (THREE_NODES_ONE_DOWN, LBP1(0.8), ARRIVALS, 400.0),
    "failure-free": (TWO_NODES.without_failures(), LBP1(0.5), ARRIVALS, 400.0),
    "overloaded": (
        TWO_NODES, LBP2(1.0), ArrivalProcessConfig(rate=0.5, mean_batch_size=8), 150.0,
    ),
    "before-first-arrival": (TWO_NODES, LBP2(1.0), ARRIVALS, 0.05),
    "drain": (CHURN, Drain(), ArrivalProcessConfig(rate=0.3, mean_batch_size=5), 400.0),
}

#: name -> (sha256 of every run's sojourn times, sha256 of every run's result)
GOLDEN = {
    "before-first-arrival": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "86c3991e3df0f99ceaa33b635df43a69505706682c6bbe4ea3ca0e297249d105",
    ),
    "deterministic-delay": (
        "a086fc86289a0905701025a32c5b523cdf16740f9117b26263306133fcc400d2",
        "28ab83ead43cae8d051167183b9e54c9208ac3bcf53fa20ea4c05cafbb67b1e6",
    ),
    "drain": (
        "73c752a00018c8a6d77425aac883f39519315890bb46f85f6ce8cd5ca32d2481",
        "234095a2cf35edb1592c1f5a52c03c70457ea3c28c3c84832495c1c9fcb49a9a",
    ),
    "erlang-delay": (
        "b5494eba6ae67b65ece983755819339410d58dde3dd64da89a8420befa0964ec",
        "e400c2d78d7279abc1ab66b01359b2e871fdc8595057d979bdffa63536de73ff",
    ),
    "failure-free": (
        "2a7f5952598ffb657f03937a9589ba11633f755f42e6593230ac6ca2c40de042",
        "3b2bb63b0bce0765e561d58e8dbb6d4ea65e5fd1a3422972b88a2a0cd903c909",
    ),
    "fastest": (
        "c0d1ea89a3613bdc25f05d1760158871c632ffcfaad8774f6989ffdc63a5e46a",
        "baab4961a66a0a582c534465fe19a2eee1ceac2868fb097b32b96720f808ceed",
    ),
    "lbp1": (
        "bfd7acb0196c65a72cfd546e062a6776b2c0c30d7091253f164f0645523117ac",
        "0c95ec3c5ea636c4a4a18209454066ab556e3b4872dec364cc67c1b85334d488",
    ),
    "lbp2": (
        "c0c233b4972bf6d3bd93763ccf2bc81e84d91f69f39c82fd3332c7420d241a31",
        "b163387fd22f6284d9ad06011b3255d8a070b1eb292eca71bf90db5f5082f055",
    ),
    "lbp2-no-compensation": (
        "93fc7aef6e27f79d9a84c8f59cccbf7c7efdcbfbe5b6b8742f0e4418f64607f6",
        "a1b70c9ff483c8fec74939346da88c4b7abc3f854d249c7f2fa5408e95725d60",
    ),
    "none": (
        "32883d308fd91cc5f529c37776baf45e6d54ffda2d6dc3a08a26b817c4324059",
        "d98cb39665b98caf6d5454a9b63c52af7b3611d0c230a0ba7bfe0ef4ea5db1a2",
    ),
    "overloaded": (
        "3ed817053c0391bd2d64f7515cb8ea776040449b65ab793d88ac7d1a99cce07f",
        "bfca86624339ba43757da88d8eaba8ac65f9b8e7794c867c437b8b460496a738",
    ),
    "pairwise-delays": (
        "9cabe483de0e58a2b71d7d84e1c5f9c519df0b448835735085256421cc6b968e",
        "6877112ca54d56e0bb8a6068babaea5b70886a9b70452762707683a77692b409",
    ),
    "proportional": (
        "650df46c389a82f4cc898f6f44c45990375798ef3763f59fe4f4f65bd834b7a8",
        "4d21ea14f0c06736709d52f56e09006f8ba24b6c44108d04d73e05b055e2d77a",
    ),
    "send-all": (
        "e08467d104e0f273b8e5657dcf16a35da59943304d786a2813c9d2dc15fa5907",
        "c9216c16a41c1eb86ae08b01c21b8fd5e84bfc6eff33adc4027a7742b0c28c84",
    ),
    "slowest": (
        "4c9017411a2a7708ec131454ad574c60a78fa9de1de2f31639f9c0b0042c4e6d",
        "bca2edcda71f9239cfff41bbef53f424e83a40c8facc567b5beb4d53a74e5810",
    ),
    "three-node": (
        "286f71e5b7bd9f7c0608683a6dd02eb7075b8aa82c538140eea1094295bd0a06",
        "beca08be7d2ddcf84cf700841638f5535cff9231f951e9665157e8fca35e6686",
    ),
    "three-node-starts-down": (
        "1b09ef8a0039cf45bcba063901d7fff1894d1d4ce4b32f9644c1e8b70aee3d63",
        "33f9e616c2eb87c9310e3756545f7266acd8233d99102d3ec2c9c60792445024",
    ),
    "zero-delay": (
        "c9d1e875dfc9233cc54682dd2f536a7f56ac5da5b9d165387e685e0efd63a973",
        "13df7ab8b43412fc739f9649b80544daa8749966150c78d3b0e36f52fbeae25f",
    ),
}


def _hex(value) -> str:
    return float(value).hex()


def _result_record(result) -> dict:
    sojourns = result.completed_sojourn_times
    return {
        "horizon": _hex(result.horizon),
        "jobs_arrived": result.jobs_arrived,
        "tasks_arrived": result.tasks_arrived,
        "tasks_completed": result.tasks_completed,
        "mean_sojourn_time": _hex(result.mean_sojourn_time),
        "completed_sojourn_times": [
            str(sojourns.dtype),
            list(sojourns.shape),
            hashlib.sha256(sojourns.tobytes()).hexdigest(),
        ],
        "balancing_episodes": result.balancing_episodes,
        "failures_per_node": list(result.failures_per_node),
        "queue_lengths_at_end": list(result.queue_lengths_at_end),
        "throughput": _hex(result.throughput),
    }


def run_case(name: str, seed: int):
    """Run one case for one root seed."""
    params, policy, arrivals, horizon = CASES[name]
    return DynamicSystem(params, policy, arrivals, seed=seed).run(horizon)


def digests(name: str):
    """``(sojourn-times digest, per-run results digest)`` over :data:`SEEDS`."""
    results = [run_case(name, seed) for seed in SEEDS]
    sojourns = b"".join(result.completed_sojourn_times.tobytes() for result in results)
    records = [_result_record(result) for result in results]
    return (
        hashlib.sha256(sojourns).hexdigest(),
        hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest(),
    )


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_dynamic_stream_is_unchanged(name):
    sojourn_digest, results_digest = digests(name)
    expected_sojourns, expected_results = GOLDEN[name]
    assert sojourn_digest == expected_sojourns, "sojourn times changed"
    assert results_digest == expected_results, "run results changed"


def test_one_lbp2_run_field_by_field():
    # The digest above, spelled out for one run so that a change shows
    # which field moved.
    result = run_case("lbp2", 0)
    assert result.horizon == 400.0
    assert result.jobs_arrived == 48
    assert result.tasks_arrived == 389
    assert result.tasks_completed == 367
    assert result.balancing_episodes == 48
    assert result.failures_per_node == (11, 15)
    assert result.queue_lengths_at_end == (14, 8)
    assert result.mean_sojourn_time == 11.196334433891042
    assert result.throughput == 0.9175
    sojourns = result.completed_sojourn_times
    assert sojourns.dtype == np.float64 and sojourns.shape == (367,)
    assert sojourns[:4].tolist() == [
        0.08256132288588125,
        1.7127586123580159,
        2.0624392473600524,
        3.481221495627786,
    ]
    assert sojourns[-1] == 4.768649806027156
    # Python scalars, not NumPy ones.
    assert {type(result.jobs_arrived), type(result.failures_per_node[0])} == {int}
    assert {type(result.mean_sojourn_time), type(result.horizon)} == {float}


def test_horizon_before_the_first_arrival_reports_an_empty_run():
    for seed in SEEDS:
        result = run_case("before-first-arrival", seed)
        assert (result.jobs_arrived, result.tasks_completed) == (0, 0)
        assert result.completed_sojourn_times.shape == (0,)
        assert np.isnan(result.mean_sojourn_time)
        assert result.queue_lengths_at_end == (0, 0)


def test_streams_argument_matches_the_seed():
    params, policy, arrivals, horizon = CASES["drain"]
    by_seed = DynamicSystem(params, policy, arrivals, seed=2).run(horizon)
    by_streams = DynamicSystem(
        params, policy, arrivals, streams=RandomStreams(2)
    ).run(horizon)
    assert _result_record(by_streams) == _result_record(by_seed)

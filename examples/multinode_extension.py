#!/usr/bin/env python
"""Beyond the paper: n-node exact analysis and dynamic external arrivals.

The paper analyses a two-node system and remarks that (a) the theory extends
to multiple nodes in a straightforward way and (b) dynamic versions of the
policies can be built by re-running a balancing episode at every external
workload arrival.  This example exercises both extensions implemented in
:mod:`repro.core.multinode` and :mod:`repro.core.arrivals`:

1. exact expected completion times for a 3-node system under several
   one-shot policies, computed from the absorbing CTMC, cross-checked with
   Monte-Carlo;
2. an open system where jobs arrive as a Poisson stream and every arrival
   triggers a re-balancing episode, comparing sojourn times with and
   without churn-aware balancing.

Run it with ``python examples/multinode_extension.py``.
"""

from repro import LBP1, LBP2, EngineRequest, NoBalancing, mc_point_spec, run_engine
from repro.analysis.reporting import format_table
from repro.analysis.tables import Table
from repro.core.arrivals import ArrivalProcessConfig, DynamicSystem
from repro.core.multinode import expected_completion_time_multinode
from repro.core.parameters import NodeParameters, SystemParameters, TransferDelayModel


def three_node_system() -> SystemParameters:
    """A small heterogeneous 3-node system with churn."""
    return SystemParameters(
        nodes=(
            NodeParameters(service_rate=1.5, failure_rate=0.05, recovery_rate=0.1,
                           name="fast"),
            NodeParameters(service_rate=1.0, failure_rate=0.05, recovery_rate=0.05,
                           name="medium"),
            NodeParameters(service_rate=0.5, failure_rate=0.02, recovery_rate=0.1,
                           name="slow"),
        ),
        delay=TransferDelayModel(mean_delay_per_task=0.05),
    )


def exact_three_node_study() -> None:
    params = three_node_system()
    workload = (12, 3, 3)
    policies = [NoBalancing(), LBP1(gain=0.5), LBP1(gain=1.0), LBP2(gain=1.0)]

    table = Table(["policy", "gain", "exact mean (s)", "MC mean (s)", "CTMC states"],
                  title=f"3-node exact analysis, workload {workload}")
    for policy in policies:
        prediction = expected_completion_time_multinode(params, workload, policy=policy)
        estimate = run_engine(EngineRequest(mc_point_spec(params, policy, workload,
                                                          num_realisations=150, seed=5))).estimate
        table.add_row({
            "policy": policy.name,
            "gain": getattr(policy, "gain", float("nan")),
            "exact mean (s)": prediction.mean,
            "MC mean (s)": estimate.mean_completion_time,
            "CTMC states": prediction.num_states,
        })
    print(format_table(table, float_format="{:.2f}"))
    print("(the exact column only accounts for the t = 0 transfers; for LBP-2 "
          "the Monte-Carlo column additionally includes the failure-time "
          "compensation, which is why it is slightly lower)\n")


def dynamic_arrival_study() -> None:
    params = three_node_system()
    arrivals = ArrivalProcessConfig(rate=0.04, mean_batch_size=25, assignment="fastest")

    table = Table(["policy", "jobs", "tasks done", "mean sojourn (s)", "episodes"],
                  title="Open system: Poisson job arrivals, re-balance at every arrival")
    for policy in (NoBalancing(), LBP1(gain=0.8), LBP2(gain=1.0)):
        system = DynamicSystem(params, policy, arrivals, seed=17)
        result = system.run(horizon=2000.0)
        table.add_row({
            "policy": policy.name,
            "jobs": result.jobs_arrived,
            "tasks done": result.tasks_completed,
            "mean sojourn (s)": result.mean_sojourn_time,
            "episodes": result.balancing_episodes,
        })
    print(format_table(table, float_format="{:.1f}"))
    print("(re-balancing at every arrival keeps the volunteers busy and cuts "
          "the mean task sojourn time, exactly the dynamic variant sketched "
          "in the paper's conclusion)")


def main() -> None:
    exact_three_node_study()
    dynamic_arrival_study()


if __name__ == "__main__":
    main()

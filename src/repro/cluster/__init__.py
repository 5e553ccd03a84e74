"""Distributed-system model: computing elements, failures, channels.

This subpackage models the distributed computing system of the paper:

* :mod:`repro.cluster.system` — the :class:`DistributedSystem` façade that
  runs one realisation of a workload under a policy, as one next-event
  loop over plain per-node state and a heap of its clocks;
* :mod:`repro.cluster.task` / :mod:`repro.cluster.workload` — tasks (the
  smallest indivisible unit of work) and initial workloads;
* :mod:`repro.cluster.network` — load-dependent random transfer delays
  (:func:`~repro.cluster.network.sample_batch_delay`) and transfer records;
* :mod:`repro.cluster.trace` — queue-length trajectory recording (Fig. 4).

The components built on the :mod:`repro.sim` discrete-event kernel serve
the open-system :class:`~repro.core.arrivals.DynamicSystem` and the
test-bed emulation:

* :mod:`repro.cluster.node` — computing elements (CEs) with exponential
  service, preemptible by failures;
* :mod:`repro.cluster.failure` — the alternating exponential
  failure/recovery process of each node;
* :mod:`repro.cluster.backup` — the per-node backup agent that executes
  compensation transfers at failure instants (LBP-2);
* :class:`~repro.cluster.network.Network` — the transfer channel process.
"""

from repro.cluster.task import Task, TaskState
from repro.cluster.workload import Workload, generate_workload
from repro.cluster.node import ComputeElement, NodeState
from repro.cluster.failure import FailureRecoveryProcess
from repro.cluster.backup import BackupAgent
from repro.cluster.network import Network, TransferRecord
from repro.cluster.trace import QueueTrace, SystemTrace
from repro.cluster.system import DistributedSystem, SimulationResult, simulate_once

__all__ = [
    "BackupAgent",
    "ComputeElement",
    "DistributedSystem",
    "FailureRecoveryProcess",
    "Network",
    "NodeState",
    "QueueTrace",
    "SimulationResult",
    "SystemTrace",
    "Task",
    "TaskState",
    "TransferRecord",
    "Workload",
    "generate_workload",
    "simulate_once",
]

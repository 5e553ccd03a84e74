"""Distributed-system model: failing nodes, transfer delays, queues.

This subpackage models the distributed computing system of the paper:

* :mod:`repro.cluster.system` — the :class:`DistributedSystem` façade that
  runs one realisation of a workload under a policy, as one next-event
  loop over plain per-node state and a heap of its clocks (the open-system
  :class:`~repro.core.arrivals.DynamicSystem` runs the same kind of loop);
* :mod:`repro.cluster.workload` — initial workloads (task counts per node);
* :mod:`repro.cluster.network` — load-dependent random transfer delays
  (:func:`~repro.cluster.network.sample_batch_delay`) and transfer records;
* :mod:`repro.cluster.trace` — queue-length trajectory recording (Fig. 4).
"""

from repro.cluster.workload import Workload
from repro.cluster.network import TransferRecord
from repro.cluster.trace import QueueTrace, SystemTrace
from repro.cluster.system import DistributedSystem, SimulationResult, simulate_once

__all__ = [
    "DistributedSystem",
    "QueueTrace",
    "SimulationResult",
    "SystemTrace",
    "TransferRecord",
    "Workload",
    "simulate_once",
]

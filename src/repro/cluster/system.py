"""The :class:`DistributedSystem` façade: one simulated realisation.

This module wires nodes, failure processes, backup agents and the network
together and executes one realisation of the workload under a given
load-balancing policy.  It is the Monte-Carlo counterpart of the paper's
wireless-LAN experiments: the quantity of interest is the *overall completion
time*, the instant the last task in the system (queued, in service or in
transit) finishes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cluster.backup import BackupAgent
from repro.cluster.failure import FailureRecoveryProcess
from repro.cluster.network import Network, TransferRecord
from repro.cluster.node import ComputeElement
from repro.cluster.task import Task
from repro.cluster.trace import SystemTrace, TraceEvent
from repro.cluster.workload import Workload
from repro.core.parameters import SystemParameters
from repro.core.policies.base import LoadBalancingPolicy, Transfer
from repro.sim.distributions import Distribution
from repro.sim.engine import Environment
from repro.sim.rng import RandomStreams, SeedLike


class IncompleteSimulationError(RuntimeError):
    """Raised when the workload did not finish before the simulation horizon."""


@dataclass
class SimulationResult:
    """Outcome of one simulated realisation."""

    completion_time: float
    policy_name: str
    workload: Tuple[int, ...]
    total_tasks: int
    tasks_completed_per_node: Tuple[int, ...]
    failures_per_node: Tuple[int, ...]
    recoveries_per_node: Tuple[int, ...]
    busy_time_per_node: Tuple[float, ...]
    initial_transfers: List[Transfer] = field(default_factory=list)
    transfer_records: List[TransferRecord] = field(default_factory=list)
    trace: Optional[SystemTrace] = None

    @property
    def total_completed(self) -> int:
        """Total number of tasks completed across all nodes."""
        return int(sum(self.tasks_completed_per_node))

    @property
    def total_failures(self) -> int:
        """Total number of failure events observed."""
        return int(sum(self.failures_per_node))

    @property
    def total_transferred(self) -> int:
        """Total number of tasks that crossed the network."""
        return int(sum(record.num_tasks for record in self.transfer_records))

    def utilisation(self, node: int) -> float:
        """Fraction of the makespan node ``node`` spent processing tasks."""
        if self.completion_time == 0.0:
            return 0.0
        return self.busy_time_per_node[node] / self.completion_time


class DistributedSystem:
    """A simulated distributed computing system executing one workload.

    Parameters
    ----------
    params:
        Stochastic system parameters.
    policy:
        The load-balancing policy to apply.
    workload:
        Initial task counts per node (a :class:`~repro.cluster.workload.Workload`
        or a plain sequence of integers).
    seed:
        Root seed; alternatively pass a pre-built ``streams`` collection.
    streams:
        A :class:`~repro.sim.rng.RandomStreams` instance (overrides ``seed``).
    preemption:
        Failure preemption semantics of the nodes (``"resume"``/``"restart"``).
    record_trace:
        Record queue-length trajectories and discrete events (Fig. 4).
    size_distribution:
        Optional distribution of abstract task sizes.
    """

    def __init__(
        self,
        params: SystemParameters,
        policy: LoadBalancingPolicy,
        workload: Union[Workload, Sequence[int]],
        seed: SeedLike = None,
        streams: Optional[RandomStreams] = None,
        preemption: str = "resume",
        record_trace: bool = False,
        size_distribution: Optional[Distribution] = None,
    ) -> None:
        self.params = params
        self.policy = policy
        self.workload = workload if isinstance(workload, Workload) else Workload(tuple(workload))
        if self.workload.num_nodes != params.num_nodes:
            raise ValueError(
                f"workload spans {self.workload.num_nodes} nodes but the system "
                f"has {params.num_nodes}"
            )
        self.streams = streams if streams is not None else RandomStreams(seed)

        self.env = Environment()
        self.trace = SystemTrace(params.num_nodes) if record_trace else None

        self._outstanding = self.workload.total
        self._completion_event = self.env.event()
        if self._outstanding == 0:
            self._completion_event.succeed(0.0)

        # -- nodes ---------------------------------------------------------
        self.nodes: List[ComputeElement] = []
        for index in range(params.num_nodes):
            node = ComputeElement(
                env=self.env,
                index=index,
                params=params.node(index),
                rng=self.streams.stream(f"node-{index}.service"),
                preemption=preemption,
                on_task_completed=self._on_task_completed,
                # Queue changes matter only to the trace, so an untraced
                # run leaves the hook unset.
                on_queue_change=self._on_queue_change if record_trace else None,
            )
            self.nodes.append(node)

        # -- network ---------------------------------------------------------
        self.network = Network(
            env=self.env,
            params=params,
            rng=self.streams.stream("network.delay"),
            deliver=self._deliver,
            on_transfer_started=self._on_transfer_started,
            on_transfer_arrived=self._on_transfer_arrived,
        )

        # -- backup agents and failure processes ------------------------------
        self.backups: List[BackupAgent] = [
            BackupAgent(node, self.network, params) for node in self.nodes
        ]
        self.failure_processes: List[FailureRecoveryProcess] = [
            FailureRecoveryProcess(
                env=self.env,
                node=node,
                rng=self.streams.stream(f"node-{index}.failure"),
                on_failure=self._on_failure,
                on_recovery=self._on_recovery,
            )
            for index, node in enumerate(self.nodes)
        ]

        # -- initial workload and the policy's t = 0 action ---------------------
        # Unit-size tasks draw nothing: only a size distribution gets a stream.
        sizes_rng = (
            None
            if size_distribution is None
            else self.streams.stream("workload.sizes")
        )
        materialised = self.workload.materialise(
            rng=sizes_rng, size_distribution=size_distribution
        )
        for index, node in enumerate(self.nodes):
            node.assign_initial(materialised[index])

        self.initial_transfers = self._execute_initial_transfers()

    # -- set-up helpers ---------------------------------------------------------

    def _execute_initial_transfers(self) -> List[Transfer]:
        requested = self.policy.initial_transfers(tuple(self.workload), self.params)
        executed: List[Transfer] = []
        for transfer in requested:
            if transfer.is_empty:
                continue
            source_node = self.nodes[transfer.source]
            batch = source_node.take_tasks(transfer.num_tasks)
            if not batch:
                continue
            self.network.transfer(
                transfer.source, transfer.destination, batch, reason="initial"
            )
            executed.append(
                Transfer(transfer.source, transfer.destination, len(batch))
            )
        return executed

    # -- event plumbing -----------------------------------------------------------

    def _deliver(self, destination: int, tasks: List[Task]) -> None:
        self.nodes[destination].receive(tasks)

    def _on_task_completed(self, node: ComputeElement, task: Task) -> None:
        self._outstanding -= 1
        if self.trace is not None:
            self.trace.record_event(
                TraceEvent(self.env.now, "task_completed", node=node.index)
            )
        if self._outstanding == 0 and not self._completion_event.triggered:
            self._completion_event.succeed(self.env.now)
            if self.trace is not None:
                self.trace.record_event(TraceEvent(self.env.now, "completion"))

    def _on_queue_change(self, node: ComputeElement) -> None:
        self.trace.record_queue(node.index, self.env.now, node.queue_length)

    def _on_failure(self, node: ComputeElement, time: float) -> None:
        if self.trace is not None:
            self.trace.record_event(TraceEvent(time, "failure", node=node.index))
        queue_sizes = self.queue_sizes()
        self.backups[node.index].handle_failure(self.policy, queue_sizes, time)

    def _on_recovery(self, node: ComputeElement, time: float) -> None:
        if self.trace is not None:
            self.trace.record_event(TraceEvent(time, "recovery", node=node.index))
        requested = self.policy.on_recovery(
            node.index, self.queue_sizes(), self.params, time=time
        )
        for transfer in requested:
            batch = self.nodes[transfer.source].take_tasks(transfer.num_tasks)
            if batch:
                self.network.transfer(
                    transfer.source, transfer.destination, batch, reason="recovery"
                )

    def _on_transfer_started(self, record: TransferRecord) -> None:
        if self.trace is not None:
            self.trace.record_event(
                TraceEvent(
                    record.started_at,
                    "transfer_started",
                    node=record.source,
                    detail=f"{record.num_tasks} tasks to node {record.destination}",
                )
            )

    def _on_transfer_arrived(self, record: TransferRecord) -> None:
        if self.trace is not None:
            self.trace.record_event(
                TraceEvent(
                    record.arrived_at,
                    "transfer_arrived",
                    node=record.destination,
                    detail=f"{record.num_tasks} tasks from node {record.source}",
                )
            )

    # -- observation --------------------------------------------------------------

    def queue_sizes(self) -> Tuple[int, ...]:
        """Current queue length (waiting + in service) of every node."""
        return tuple(node.queue_length for node in self.nodes)

    @property
    def tasks_outstanding(self) -> int:
        """Tasks not yet completed (queued, in service or in transit)."""
        return self._outstanding

    # -- execution -----------------------------------------------------------------

    def run(self, horizon: Optional[float] = None) -> SimulationResult:
        """Run until the workload completes and return the realisation summary.

        Parameters
        ----------
        horizon:
            Optional wall-clock bound on simulated time.  If the workload has
            not completed by then an :class:`IncompleteSimulationError` is
            raised (this guards against parameterisations where completion is
            impossible, e.g. a permanently failed node holding tasks).
        """
        if horizon is not None:
            timeout = self.env.timeout(horizon)
            self.env.run(until=self.env.any_of([self._completion_event, timeout]))
            if not self._completion_event.triggered:
                raise IncompleteSimulationError(
                    f"workload incomplete after horizon={horizon} "
                    f"({self._outstanding} tasks outstanding)"
                )
            completion_time = float(self._completion_event.value)
        else:
            completion_time = float(self.env.run(until=self._completion_event))

        return SimulationResult(
            completion_time=completion_time,
            policy_name=self.policy.name,
            workload=tuple(self.workload),
            total_tasks=self.workload.total,
            tasks_completed_per_node=tuple(n.tasks_completed for n in self.nodes),
            failures_per_node=tuple(n.failures for n in self.nodes),
            recoveries_per_node=tuple(n.recoveries for n in self.nodes),
            busy_time_per_node=tuple(n.busy_time for n in self.nodes),
            initial_transfers=list(self.initial_transfers),
            transfer_records=list(self.network.records),
            trace=self.trace,
        )


def simulate_once(
    params: SystemParameters,
    policy: LoadBalancingPolicy,
    workload: Union[Workload, Sequence[int]],
    seed: SeedLike = None,
    **kwargs,
) -> SimulationResult:
    """Build a :class:`DistributedSystem` and run a single realisation."""
    horizon = kwargs.pop("horizon", None)
    system = DistributedSystem(params, policy, workload, seed=seed, **kwargs)
    return system.run(horizon=horizon)

"""Complete test-bed experiments (the "Exp." columns of Tables 1 and 2).

A :class:`TestbedExperiment` assembles, for each emulated node, the three
software layers of the paper's architecture — application, communication and
load-balancing/failure — plus the failure injector, runs the workload to
completion and reports the overall completion time together with traffic and
calibration statistics.  :meth:`TestbedExperiment.run_many` repeats the
experiment (20 realisations in the paper's Table 1, 60 for its LBP-2 runs)
with independent random streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cluster.node import ComputeElement
from repro.cluster.task import Task
from repro.cluster.workload import Workload
from repro.core.parameters import SystemParameters
from repro.core.policies.base import LoadBalancingPolicy
from repro.montecarlo.statistics import SummaryStatistics, summarize
from repro.sim.engine import Environment
from repro.sim.rng import RandomStreams, SeedLike, spawn_seeds
from repro.testbed.application import ApplicationLayer, MatrixWorkloadGenerator
from repro.testbed.balancer import BalancerLayer
from repro.testbed.communication import CommunicationLayer, MessageLog, WirelessChannel
from repro.testbed.failure_injector import FailureInjector


@dataclass(frozen=True)
class TestbedConfig:
    """Tunables of the test-bed emulation that are not part of the model.

    The defaults are small compared to the task service times, matching the
    paper's observation that state packets are 20–34 bytes while data
    packets carry whole task batches.
    """

    __test__ = False  # not a pytest test class despite the name

    state_delay_mean: float = 0.002
    state_loss_probability: float = 0.005
    per_transfer_overhead: float = 0.01
    sync_wait: float = 0.05
    resync_interval: Optional[float] = 5.0
    mean_task_size: float = 1.0

    def __post_init__(self) -> None:
        if self.state_delay_mean < 0 or self.per_transfer_overhead < 0:
            raise ValueError("delays must be non-negative")
        if not 0.0 <= self.state_loss_probability < 1.0:
            raise ValueError("state_loss_probability must lie in [0, 1)")
        if self.sync_wait < 0:
            raise ValueError("sync_wait must be non-negative")
        if self.mean_task_size <= 0:
            raise ValueError("mean_task_size must be positive")


@dataclass
class TestbedResult:
    """Outcome of one emulated experiment."""

    __test__ = False  # not a pytest test class despite the name

    completion_time: float
    policy_name: str
    workload: Tuple[int, ...]
    tasks_completed_per_node: Tuple[int, ...]
    failures_per_node: Tuple[int, ...]
    execution_times_per_node: Dict[int, np.ndarray]
    message_log: MessageLog
    initial_transfers: list = field(default_factory=list)
    compensation_transfers: list = field(default_factory=list)


@dataclass
class TestbedCampaign:
    """Aggregate of several repeated experiments."""

    __test__ = False  # not a pytest test class despite the name

    results: List[TestbedResult]
    summary: SummaryStatistics

    @property
    def completion_times(self) -> np.ndarray:
        """Completion times of all realisations."""
        return np.array([result.completion_time for result in self.results])

    @property
    def mean_completion_time(self) -> float:
        """Sample mean over the realisations."""
        return self.summary.mean


class TestbedExperiment:
    """One emulated wireless-test-bed experiment.

    (The leading "Test" in the class name refers to the paper's test-bed;
    the ``__test__ = False`` marker below keeps pytest from trying to collect
    it as a test case when it is imported inside test modules.)

    Parameters
    ----------
    params:
        System parameters (node speeds, failure/recovery rates, delay model).
    policy:
        Load-balancing policy deployed on every node.
    workload:
        Initial workload vector.
    seed:
        Root seed of the experiment.
    config:
        Emulation-specific tunables (:class:`TestbedConfig`).
    """

    __test__ = False  # not a pytest test class despite the name

    def __init__(
        self,
        params: SystemParameters,
        policy: LoadBalancingPolicy,
        workload: Union[Workload, Sequence[int]],
        seed: SeedLike = None,
        config: Optional[TestbedConfig] = None,
        streams: Optional[RandomStreams] = None,
    ) -> None:
        self.params = params
        self.policy = policy
        self.workload = workload if isinstance(workload, Workload) else Workload(tuple(workload))
        if self.workload.num_nodes != params.num_nodes:
            raise ValueError(
                f"workload spans {self.workload.num_nodes} nodes but the system "
                f"has {params.num_nodes}"
            )
        self.config = config or TestbedConfig()
        self.streams = streams if streams is not None else RandomStreams(seed)

        self.env = Environment()
        self._outstanding = self.workload.total
        self._completion_event = self.env.event()
        if self._outstanding == 0:
            self._completion_event.succeed(0.0)

        generator = MatrixWorkloadGenerator(mean_size=self.config.mean_task_size)
        workload_rng = self.streams.stream("testbed.workload")
        tasks = generator.generate(tuple(self.workload), workload_rng)

        # -- shared wireless medium -------------------------------------------
        self.channel = WirelessChannel(
            self.env,
            params,
            rng=self.streams.stream("testbed.channel"),
            state_delay_mean=self.config.state_delay_mean,
            state_loss_probability=self.config.state_loss_probability,
            per_transfer_overhead=self.config.per_transfer_overhead,
        )

        # -- per-node layers -----------------------------------------------------
        self.applications: List[ApplicationLayer] = []
        self.nodes: List[ComputeElement] = []
        self.comms: List[CommunicationLayer] = []
        self.balancers: List[BalancerLayer] = []
        self.injectors: List[FailureInjector] = []

        for index in range(params.num_nodes):
            application = ApplicationLayer(
                node_index=index,
                service_rate=params.node(index).service_rate,
                generator=generator,
            )
            node = ComputeElement(
                env=self.env,
                index=index,
                params=params.node(index),
                service_time_provider=application.execution_time,
                on_task_completed=self._on_task_completed,
            )
            comm = CommunicationLayer(self.env, index, self.channel, params.num_nodes)
            comm.bind_data_handler(self._deliver_tasks)
            comm.bind_state_dispatcher(self._dispatch_state)
            self.applications.append(application)
            self.nodes.append(node)
            self.comms.append(comm)

        for index, node in enumerate(self.nodes):
            node.assign_initial(tasks[index])
            self.balancers.append(
                BalancerLayer(
                    env=self.env,
                    node=node,
                    policy=policy,
                    params=params,
                    comm=self.comms[index],
                    initial_workload=self.workload.count(index),
                    sync_wait=self.config.sync_wait,
                    resync_interval=self.config.resync_interval,
                )
            )
            self.injectors.append(
                FailureInjector(
                    env=self.env,
                    node_index=index,
                    params=params.node(index),
                    rng=self.streams.stream(f"testbed.node-{index}.failure"),
                    on_stop=self._on_stop_signal,
                    on_resume=self._on_resume_signal,
                )
            )

    # -- wiring callbacks --------------------------------------------------------

    def _dispatch_state(self, destination: int, message) -> None:
        self.comms[destination].receive_state(message)

    def _deliver_tasks(self, destination: int, batch: List[Task]) -> None:
        self.nodes[destination].receive(batch)

    def _on_stop_signal(self, node_index: int, time: float) -> None:
        self.balancers[node_index].handle_stop_signal(time)

    def _on_resume_signal(self, node_index: int, time: float) -> None:
        self.balancers[node_index].handle_resume_signal(time)

    def _on_task_completed(self, node: ComputeElement, task: Task) -> None:
        self.applications[node.index].record_execution(
            task, self.applications[node.index].execution_time(task)
        )
        self._outstanding -= 1
        if self._outstanding == 0 and not self._completion_event.triggered:
            self._completion_event.succeed(self.env.now)

    # -- execution ------------------------------------------------------------------

    def run(self, horizon: Optional[float] = None) -> TestbedResult:
        """Run the experiment to completion and return its summary."""
        if horizon is not None:
            timeout = self.env.timeout(horizon)
            self.env.run(until=self.env.any_of([self._completion_event, timeout]))
            if not self._completion_event.triggered:
                raise RuntimeError(
                    f"test-bed run incomplete after horizon={horizon} "
                    f"({self._outstanding} tasks outstanding)"
                )
            completion_time = float(self._completion_event.value)
        else:
            completion_time = float(self.env.run(until=self._completion_event))

        return TestbedResult(
            completion_time=completion_time,
            policy_name=self.policy.name,
            workload=tuple(self.workload),
            tasks_completed_per_node=tuple(n.tasks_completed for n in self.nodes),
            failures_per_node=tuple(inj.num_failures for inj in self.injectors),
            execution_times_per_node={
                app.node_index: app.measured_times for app in self.applications
            },
            message_log=self.channel.log,
            initial_transfers=[
                t for b in self.balancers for t in b.initial_transfers_sent
            ],
            compensation_transfers=[
                t for b in self.balancers for t in b.compensation_transfers_sent
            ],
        )

    @classmethod
    def run_many(
        cls,
        params: SystemParameters,
        policy: LoadBalancingPolicy,
        workload: Union[Workload, Sequence[int]],
        num_realisations: int,
        seed: SeedLike = None,
        config: Optional[TestbedConfig] = None,
        horizon: Optional[float] = None,
    ) -> TestbedCampaign:
        """Repeat the experiment ``num_realisations`` times (as in Table 1/2)."""
        if num_realisations < 1:
            raise ValueError("num_realisations must be >= 1")
        seeds = spawn_seeds(seed, num_realisations)
        results = []
        for child in seeds:
            experiment = cls(
                params,
                policy,
                workload,
                streams=RandomStreams(child),
                config=config,
            )
            results.append(experiment.run(horizon=horizon))
        times = [result.completion_time for result in results]
        return TestbedCampaign(results=results, summary=summarize(times))

"""Computing elements (nodes) with exponential service and preemptible failures.

A :class:`ComputeElement` owns a FIFO queue of tasks and a service process
that draws an exponential service time per task (rate ``λ_d``).  The service
process is preempted when the node's failure process signals a failure and
resumes (with the saved residual work, mirroring the paper's backup/context
mechanism) when the node recovers.  Because the service law is exponential,
resuming and restarting are statistically equivalent; both semantics are
available for sensitivity studies.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Callable, Deque, List, Optional, Sequence

import numpy as np

from repro.cluster.task import Task, TaskState
from repro.core.parameters import NodeParameters
from repro.sim.distributions import Exponential
from repro.sim.engine import Environment
from repro.sim.events import Timeout
from repro.sim.exceptions import Interrupt
from repro.sim.rng import exponential_draws


class NodeState(enum.Enum):
    """Work state of a node: up ("1" in the paper) or down ("0")."""

    UP = "up"
    DOWN = "down"


class ComputeElement:
    """One node of the distributed system.

    Parameters
    ----------
    env:
        Simulation environment.
    index:
        Node index within the system.
    params:
        Stochastic parameters (:class:`~repro.core.parameters.NodeParameters`).
    rng:
        Random stream used for the service times of this node.  The node
        draws its exponential service times from it in chunks (see
        :func:`~repro.sim.rng.exponential_draws`), so it must be the node's
        own stream.
    preemption:
        ``"resume"`` (default) keeps the residual service requirement of a
        task interrupted by a failure; ``"restart"`` redraws it at recovery.
        Both are statistically identical for exponential service.
    on_task_completed:
        Callback ``f(node, task)`` invoked at every task completion (used by
        the system for completion detection and statistics).
    service_time_provider:
        Optional callable ``f(task) -> float`` returning the service time of
        a task.  When omitted the time is drawn from the node's exponential
        service law; the test-bed emulation supplies the application layer's
        size-driven execution time instead.
    """

    _PREEMPTION_MODES = ("resume", "restart")

    def __init__(
        self,
        env: Environment,
        index: int,
        params: NodeParameters,
        rng: np.random.Generator,
        preemption: str = "resume",
        on_task_completed: Optional[Callable[["ComputeElement", Task], None]] = None,
        service_time_provider: Optional[Callable[[Task], float]] = None,
    ) -> None:
        if preemption not in self._PREEMPTION_MODES:
            raise ValueError(
                f"preemption must be one of {self._PREEMPTION_MODES}, got {preemption!r}"
            )
        self.env = env
        self.index = index
        self.params = params
        self.name = params.name or f"node-{index}"
        self.rng = rng
        self.preemption = preemption
        self.service_distribution = Exponential(params.service_rate)

        self.state = NodeState.UP if params.initially_up else NodeState.DOWN
        self._waiting: Deque[Task] = deque()
        self._in_service: Optional[Task] = None
        self._wake = None  # event the idle/blocked service loop waits on

        self.tasks_completed = 0
        self.failures = 0
        self.recoveries = 0
        self.busy_time = 0.0

        self._on_task_completed = on_task_completed
        self._service_time_provider = service_time_provider

        self.service_process = env.process(
            self._service_loop(), name=f"{self.name}.service"
        )

    # -- public queue interface ------------------------------------------------

    @property
    def is_up(self) -> bool:
        """Whether the node is currently in the working state."""
        return self.state is NodeState.UP

    @property
    def queue_length(self) -> int:
        """Number of unfinished tasks held by the node (waiting + in service)."""
        return len(self._waiting) + (1 if self._in_service is not None else 0)

    @property
    def waiting_tasks(self) -> int:
        """Number of tasks waiting (excludes the task in service)."""
        return len(self._waiting)

    def assign_initial(self, tasks: Sequence[Task]) -> None:
        """Load the initial workload (must be called before the clock advances)."""
        for task in tasks:
            task.owner = self.index
            self._waiting.append(task)
        self._wake_service()

    def receive(self, tasks: Sequence[Task]) -> None:
        """Accept tasks arriving over the network."""
        for task in tasks:
            task.mark_delivered(self.index)
            self._waiting.append(task)
        if tasks:
            self._wake_service()

    def take_tasks(self, count: int) -> List[Task]:
        """Remove up to ``count`` *waiting* tasks (newest first) for transfer.

        The task currently in service is never taken: its execution context
        lives on the node (the paper's backup system restores it after a
        recovery), so only untouched tasks are eligible for migration.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count!r}")
        taken: List[Task] = []
        while self._waiting and len(taken) < count:
            taken.append(self._waiting.pop())
        return taken

    # -- failure / recovery interface -------------------------------------------

    def fail(self) -> None:
        """Put the node in the down state (called by the failure process)."""
        if self.state is NodeState.DOWN:
            raise RuntimeError(f"{self.name} is already down")
        self.state = NodeState.DOWN
        self.failures += 1
        if self.service_process.is_alive:
            self.service_process.interrupt("failure")

    def recover(self) -> None:
        """Bring the node back up (called by the failure process)."""
        if self.state is NodeState.UP:
            raise RuntimeError(f"{self.name} is already up")
        self.state = NodeState.UP
        self.recoveries += 1
        self._wake_service()

    # -- service process ----------------------------------------------------------

    def _service_loop(self):
        # Loop invariants, hoisted: this loop runs once per task.
        env = self.env
        waiting = self._waiting
        resume = self.preemption == "resume"
        provider = self._service_time_provider
        # ``mean`` is the very ``1 / rate`` that ``Exponential.sample`` scales
        # by, so these are its draws, bit for bit.
        draw = exponential_draws(self.rng)
        scale = self.service_distribution.mean
        while True:
            # Block until there is work *and* the node is up.
            while not waiting or self.state is NodeState.DOWN:
                self._wake = env.event()
                try:
                    yield self._wake
                except Interrupt:
                    # A failure signal while idle/blocked: nothing to preempt,
                    # the loop condition re-evaluates the node state.
                    pass
                finally:
                    self._wake = None

            task = waiting.popleft()
            task.mark_in_service()
            self._in_service = task

            if task.remaining_service is not None and resume:
                service_time = task.remaining_service
            elif provider is not None:
                service_time = float(provider(task))
            else:
                service_time = draw(scale)

            start = env._now
            try:
                yield Timeout(env, service_time)
            except Interrupt:
                # Failure in mid-service: save the residual work and push the
                # task back to the head of the queue.
                elapsed = env._now - start
                self.busy_time += elapsed
                remaining = max(service_time - elapsed, 0.0)
                task.mark_preempted(remaining if resume else None)
                waiting.appendleft(task)
                self._in_service = None
                continue

            # Task completed.
            now = env._now
            self.busy_time += now - start
            task.mark_completed(now, self.index)
            self._in_service = None
            self.tasks_completed += 1
            if self._on_task_completed is not None:
                self._on_task_completed(self, task)

    # -- internal helpers ------------------------------------------------------------

    def _wake_service(self) -> None:
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<ComputeElement {self.name} state={self.state.value} "
            f"queue={self.queue_length}>"
        )

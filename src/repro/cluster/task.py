"""Tasks: the smallest indivisible unit of workload.

In the paper's test-bed application a task is "the multiplication of one row
by a static matrix duplicated on all nodes", with the arithmetic precision of
each element (and therefore the task size) drawn at random.  :class:`Task`
objects serve the test-bed emulation, whose application layer
(:mod:`repro.testbed.application`) derives each task's execution time from
its ``size``.  The simulators keep no task objects: their queues hold the
tasks' residual service times.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional


class TaskState(enum.Enum):
    """Life-cycle of a task."""

    QUEUED = "queued"
    IN_SERVICE = "in_service"
    IN_TRANSIT = "in_transit"
    COMPLETED = "completed"


@dataclass(slots=True)
class Task:
    """One unit of work.

    Attributes
    ----------
    task_id:
        Unique integer identifier within a realisation.
    origin:
        Index of the node the task was initially assigned to.
    size:
        Abstract size of the task (e.g. row length times precision); only
        used by the test-bed emulation and by size-aware delay models.
    state:
        Current :class:`TaskState`.
    owner:
        Index of the node currently holding the task (``None`` while in
        transit).
    remaining_service:
        Residual service requirement left over from a preempted execution
        (``None`` when the task has never been started or when the executing
        node uses restart-on-recovery semantics).
    completed_at:
        Simulation time of completion, once completed.
    transfers:
        Number of times this task has been moved between nodes.
    """

    task_id: int
    origin: int
    size: float = 1.0
    state: TaskState = TaskState.QUEUED
    owner: Optional[int] = None
    remaining_service: Optional[float] = None
    completed_at: Optional[float] = None
    transfers: int = field(default=0)

    def __post_init__(self) -> None:
        if self.task_id < 0:
            raise ValueError(f"task_id must be >= 0, got {self.task_id!r}")
        if self.origin < 0:
            raise ValueError(f"origin must be >= 0, got {self.origin!r}")
        if self.size <= 0:
            raise ValueError(f"size must be positive, got {self.size!r}")
        if self.owner is None:
            self.owner = self.origin

    # -- life-cycle helpers --------------------------------------------------

    @property
    def is_completed(self) -> bool:
        """Whether the task has finished service."""
        return self.state is TaskState.COMPLETED

    def mark_in_service(self) -> None:
        """Transition to IN_SERVICE (must currently be queued)."""
        if self.state is not TaskState.QUEUED:
            raise ValueError(f"cannot start service from state {self.state}")
        self.state = TaskState.IN_SERVICE

    def mark_preempted(self, remaining: Optional[float]) -> None:
        """Return a preempted task to the queue, recording residual work."""
        if self.state is not TaskState.IN_SERVICE:
            raise ValueError(f"cannot preempt a task in state {self.state}")
        self.state = TaskState.QUEUED
        self.remaining_service = remaining

    def mark_in_transit(self) -> None:
        """Transition to IN_TRANSIT when put on the network."""
        if self.state is TaskState.COMPLETED:
            raise ValueError("cannot transfer a completed task")
        self.state = TaskState.IN_TRANSIT
        self.owner = None
        self.transfers += 1

    def mark_delivered(self, node_index: int) -> None:
        """Transition back to QUEUED on arrival at ``node_index``."""
        if self.state is not TaskState.IN_TRANSIT:
            raise ValueError(f"cannot deliver a task in state {self.state}")
        self.state = TaskState.QUEUED
        self.owner = node_index

    def mark_completed(self, time: float, node_index: int) -> None:
        """Transition to COMPLETED at ``time`` on ``node_index``."""
        if self.state is not TaskState.IN_SERVICE:
            raise ValueError(f"cannot complete a task in state {self.state}")
        self.state = TaskState.COMPLETED
        self.completed_at = float(time)
        self.owner = node_index
        self.remaining_service = None

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"Task(id={self.task_id}, origin={self.origin}, state={self.state.value}, "
            f"owner={self.owner})"
        )

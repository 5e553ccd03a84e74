"""Initial workloads: how many tasks each node holds at ``t = 0``.

The paper's experiments always start from a fixed vector
``(m_1, m_2)`` of task counts (e.g. ``(100, 60)`` for Fig. 3, the five
workloads of Tables 1 and 2).  :class:`Workload` materialises such a vector
into concrete :class:`~repro.cluster.task.Task` objects, optionally with
randomised task sizes mimicking the randomised arithmetic precision of the
test-bed application.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.task import Task
from repro.core.parameters import validate_workload
from repro.sim.distributions import Distribution


@dataclass(frozen=True)
class Workload:
    """An immutable initial allocation of tasks to nodes."""

    counts: Tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", validate_workload(self.counts))

    @property
    def num_nodes(self) -> int:
        """Number of nodes the workload spans."""
        return len(self.counts)

    @property
    def total(self) -> int:
        """Total number of tasks in the system."""
        return int(sum(self.counts))

    def count(self, node: int) -> int:
        """Initial number of tasks at ``node``."""
        return self.counts[node]

    def swapped(self) -> "Workload":
        """The workload with the node order reversed (used in symmetry tests)."""
        return Workload(tuple(reversed(self.counts)))

    def materialise(
        self,
        rng: Optional[np.random.Generator] = None,
        size_distribution: Optional[Distribution] = None,
    ) -> Dict[int, List[Task]]:
        """Create concrete :class:`Task` objects for every node.

        Parameters
        ----------
        rng:
            Generator used to draw task sizes, one per task in task-id
            order (only used with a ``size_distribution``).
        size_distribution:
            Distribution of the abstract task size; without one every task
            has unit size and no generator is needed.
        """
        tasks: Dict[int, List[Task]] = {}
        task_id = 0
        if size_distribution is None:
            for node, count in enumerate(self.counts):
                tasks[node] = [Task(task_id + i, node) for i in range(count)]
                task_id += count
            return tasks
        if rng is None:
            rng = np.random.default_rng(0)
        for node, count in enumerate(self.counts):
            node_tasks = []
            for _ in range(count):
                node_tasks.append(
                    Task(
                        task_id=task_id,
                        origin=node,
                        size=float(size_distribution.sample(rng)),
                    )
                )
                task_id += 1
            tasks[node] = node_tasks
        return tasks

    def __iter__(self):
        return iter(self.counts)

    def __len__(self) -> int:
        return len(self.counts)

    def __getitem__(self, node: int) -> int:
        return self.counts[node]


def generate_workload(
    counts: Sequence[int],
    rng: Optional[np.random.Generator] = None,
    size_distribution: Optional[Distribution] = None,
) -> Tuple[Workload, Dict[int, List[Task]]]:
    """Convenience helper: build a :class:`Workload` and materialise it."""
    workload = Workload(tuple(counts))
    return workload, workload.materialise(rng=rng, size_distribution=size_distribution)


#: The workload highlighted in the paper's Fig. 3/4 and Table 3 discussion.
PAPER_PRIMARY_WORKLOAD = Workload((100, 60))

#: The five workloads of Tables 1 and 2.
PAPER_TABLE_WORKLOADS = (
    Workload((200, 200)),
    Workload((200, 100)),
    Workload((100, 200)),
    Workload((200, 50)),
    Workload((50, 200)),
)

#: The two workloads of the CDF figure (Fig. 5).
PAPER_CDF_WORKLOADS = (Workload((50, 0)), Workload((25, 50)))

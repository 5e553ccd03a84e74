"""Initial workloads: how many tasks each node holds at ``t = 0``.

The paper's experiments always start from a fixed vector
``(m_1, m_2)`` of task counts (e.g. ``(100, 60)`` for Fig. 3, the five
workloads of Tables 1 and 2).  :class:`Workload` is such a vector,
validated; the simulator queues that many unstarted tasks per node, and
the test-bed emulation draws its tasks' sizes itself
(:class:`~repro.testbed.application.MatrixWorkloadGenerator`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.core.parameters import validate_workload


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

    def __iter__(self):
        return iter(self.counts)

    def __len__(self) -> int:
        return len(self.counts)

    def __getitem__(self, node: int) -> int:
        return self.counts[node]


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

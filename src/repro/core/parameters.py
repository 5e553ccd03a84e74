"""Parameterisation of the distributed computing system.

The paper (Section 2) characterises every node ``i`` by three exponential
rates:

* ``λ_di`` — the service rate (tasks completed per second while the node is
  up),
* ``λ_fi`` — the failure rate (inverse of the mean time to failure while
  up), and
* ``λ_ri`` — the recovery rate (inverse of the mean down time),

and models the delay of transferring a batch of ``L`` tasks between nodes as
an exponential random variable whose rate ``λ_ji`` depends on the batch
size.  The experiments of Section 4 show the mean delay grows linearly with
``L`` at roughly 0.02 s per task, so the batch rate used throughout is
``λ_ji = 1 / (d * L)`` with ``d`` the mean per-task delay.

:class:`NodeParameters` and :class:`SystemParameters` capture exactly this
parameterisation and are shared by the analytical solvers
(:mod:`repro.core.completion_time`), the policies
(:mod:`repro.core.policies`), the simulator (:mod:`repro.cluster`) and the
test-bed emulation (:mod:`repro.testbed`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional, Sequence, Tuple

#: Mean per-task transfer delay measured on the paper's wireless test-bed
#: (Section 4, Fig. 2): approximately 0.02 seconds per task.
PAPER_MEAN_DELAY_PER_TASK = 0.02

#: Processing rates measured in the paper (Fig. 1): 1.08 tasks/s for the
#: 1 GHz Transmeta Crusoe node and 1.86 tasks/s for the 2.66 GHz P4 node.
PAPER_SERVICE_RATES = (1.08, 1.86)

#: Mean failure time for both nodes in the paper's experiments: 20 s.
PAPER_MEAN_FAILURE_TIME = 20.0

#: Mean recovery times in the paper's experiments: 10 s (node 1), 20 s (node 2).
PAPER_MEAN_RECOVERY_TIMES = (10.0, 20.0)


@dataclass(frozen=True)
class NodeParameters:
    """Stochastic description of one computing element.

    Parameters
    ----------
    service_rate:
        ``λ_d`` — mean number of tasks processed per unit time while up.
    failure_rate:
        ``λ_f`` — rate of the exponential time-to-failure.  ``0`` means the
        node never fails.
    recovery_rate:
        ``λ_r`` — rate of the exponential recovery (down) time.  ``0`` means
        a failed node never recovers (only meaningful together with
        ``failure_rate == 0`` or in pathological studies).
    initially_up:
        Whether the node is in the working state at ``t = 0``.
    name:
        Optional human-readable label (e.g. ``"crusoe"`` / ``"p4"``).
    """

    service_rate: float
    failure_rate: float = 0.0
    recovery_rate: float = 0.0
    initially_up: bool = True
    name: str = ""

    def __post_init__(self) -> None:
        if self.service_rate <= 0 or not math.isfinite(self.service_rate):
            raise ValueError(
                f"service_rate must be positive and finite, got {self.service_rate!r}"
            )
        if self.failure_rate < 0 or not math.isfinite(self.failure_rate):
            raise ValueError(
                f"failure_rate must be >= 0 and finite, got {self.failure_rate!r}"
            )
        if self.recovery_rate < 0 or not math.isfinite(self.recovery_rate):
            raise ValueError(
                f"recovery_rate must be >= 0 and finite, got {self.recovery_rate!r}"
            )
        if self.failure_rate > 0 and self.recovery_rate == 0:
            raise ValueError(
                "a node with a positive failure rate needs a positive recovery "
                "rate, otherwise the workload may never complete"
            )
        if not self.initially_up and self.recovery_rate == 0:
            raise ValueError("a node that starts down needs a positive recovery rate")

    # -- derived quantities ------------------------------------------------

    @property
    def mean_service_time(self) -> float:
        """Mean execution time per task (``1 / λ_d``)."""
        return 1.0 / self.service_rate

    @property
    def mean_time_to_failure(self) -> float:
        """Mean up time before a failure (``inf`` if the node never fails)."""
        if self.failure_rate == 0:
            return math.inf
        return 1.0 / self.failure_rate

    @property
    def mean_recovery_time(self) -> float:
        """Mean down time after a failure (``0`` if the node never fails)."""
        if self.recovery_rate == 0:
            return 0.0 if self.failure_rate == 0 else math.inf
        return 1.0 / self.recovery_rate

    @property
    def can_fail(self) -> bool:
        """Whether this node is subject to random failures."""
        return self.failure_rate > 0

    @property
    def availability(self) -> float:
        """Steady-state probability of being up, ``λ_r / (λ_f + λ_r)``.

        This is the factor used by eq. (8) of the paper to discount the
        compensation transfer sent to a potentially unreliable receiver.
        """
        if self.failure_rate == 0:
            return 1.0
        return self.recovery_rate / (self.failure_rate + self.recovery_rate)

    def without_failures(self) -> "NodeParameters":
        """A copy of this node with failures switched off (no-failure case)."""
        return replace(self, failure_rate=0.0, recovery_rate=0.0, initially_up=True)


@dataclass(frozen=True)
class TransferDelayModel:
    """Model of the random delay of transferring a batch of tasks.

    The paper's analysis treats the delay of a batch of ``L`` tasks as a
    single exponential random variable with mean ``mean_delay_per_task * L``
    (plus an optional fixed overhead representing connection set-up, which
    the paper absorbs into the exponential parameter).  The simulator can
    alternatively draw the batch delay as an Erlang sum of per-task
    exponentials (``kind="erlang"``), which has the same mean but a smaller
    variance and matches the measured per-task delay histogram more closely.
    """

    mean_delay_per_task: float = PAPER_MEAN_DELAY_PER_TASK
    fixed_overhead: float = 0.0
    kind: str = "exponential"

    _KINDS = ("exponential", "erlang", "deterministic")

    def __post_init__(self) -> None:
        if self.mean_delay_per_task < 0 or not math.isfinite(self.mean_delay_per_task):
            raise ValueError(
                f"mean_delay_per_task must be >= 0, got {self.mean_delay_per_task!r}"
            )
        if self.fixed_overhead < 0:
            raise ValueError(f"fixed_overhead must be >= 0, got {self.fixed_overhead!r}")
        if self.kind not in self._KINDS:
            raise ValueError(f"kind must be one of {self._KINDS}, got {self.kind!r}")

    def mean_delay(self, num_tasks: int) -> float:
        """Mean transfer delay of a batch of ``num_tasks`` tasks."""
        if num_tasks < 0:
            raise ValueError(f"num_tasks must be >= 0, got {num_tasks!r}")
        if num_tasks == 0:
            return 0.0
        return self.fixed_overhead + self.mean_delay_per_task * num_tasks

    def batch_rate(self, num_tasks: int) -> float:
        """Exponential rate ``λ_ji`` for a batch of ``num_tasks`` tasks.

        This is the rate the analytical model of Section 2 plugs into the
        regeneration equations; ``inf`` for an empty or instantaneous batch.
        """
        mean = self.mean_delay(num_tasks)
        if mean == 0.0:
            return math.inf
        return 1.0 / mean

    def with_mean_delay_per_task(self, mean_delay_per_task: float) -> "TransferDelayModel":
        """Copy of the model with a different per-task mean delay."""
        return replace(self, mean_delay_per_task=mean_delay_per_task)


@dataclass(frozen=True)
class SystemParameters:
    """Full stochastic description of the distributed system.

    Parameters
    ----------
    nodes:
        One :class:`NodeParameters` per computing element.
    delay:
        The :class:`TransferDelayModel` of the interconnect.  A single model
        is shared by all ordered node pairs, matching the paper's single
        wireless channel; per-pair heterogeneous delays can be expressed by
        :meth:`with_pairwise_delays`.
    pairwise_delay_overrides:
        Optional mapping ``(src, dst) -> TransferDelayModel`` for
        heterogeneous links.
    """

    nodes: Tuple[NodeParameters, ...]
    delay: TransferDelayModel = field(default_factory=TransferDelayModel)
    pairwise_delay_overrides: Tuple[Tuple[Tuple[int, int], TransferDelayModel], ...] = ()

    def __post_init__(self) -> None:
        nodes = tuple(self.nodes)
        object.__setattr__(self, "nodes", nodes)
        if len(nodes) < 1:
            raise ValueError("a system needs at least one node")
        for node in nodes:
            if not isinstance(node, NodeParameters):
                raise TypeError(f"expected NodeParameters, got {type(node).__name__}")
        overrides = tuple(self.pairwise_delay_overrides)
        object.__setattr__(self, "pairwise_delay_overrides", overrides)
        for (src, dst), model in overrides:
            self._check_index(src)
            self._check_index(dst)
            if src == dst:
                raise ValueError("a delay override cannot map a node to itself")
            if not isinstance(model, TransferDelayModel):
                raise TypeError("override values must be TransferDelayModel instances")

    def _check_index(self, index: int) -> None:
        if not 0 <= index < len(self.nodes):
            raise IndexError(
                f"node index {index} out of range for a {len(self.nodes)}-node system"
            )

    # -- accessors ---------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of computing elements."""
        return len(self.nodes)

    @property
    def service_rates(self) -> Tuple[float, ...]:
        """``λ_d`` of every node."""
        return tuple(node.service_rate for node in self.nodes)

    @property
    def failure_rates(self) -> Tuple[float, ...]:
        """``λ_f`` of every node."""
        return tuple(node.failure_rate for node in self.nodes)

    @property
    def recovery_rates(self) -> Tuple[float, ...]:
        """``λ_r`` of every node."""
        return tuple(node.recovery_rate for node in self.nodes)

    @property
    def total_service_rate(self) -> float:
        """Aggregate processing capacity ``Σ λ_dk`` of the system."""
        return float(sum(self.service_rates))

    def node(self, index: int) -> NodeParameters:
        """Parameters of node ``index``."""
        self._check_index(index)
        return self.nodes[index]

    def delay_model(self, src: int, dst: int) -> TransferDelayModel:
        """Delay model of the (directed) link from ``src`` to ``dst``."""
        self._check_index(src)
        self._check_index(dst)
        for (s, d), model in self.pairwise_delay_overrides:
            if (s, d) == (src, dst):
                return model
        return self.delay

    def transfer_rate(self, src: int, dst: int, num_tasks: int) -> float:
        """Exponential batch-transfer rate ``λ_{dst,src}`` for ``num_tasks``."""
        return self.delay_model(src, dst).batch_rate(num_tasks)

    # -- derived systems -----------------------------------------------------

    def without_failures(self) -> "SystemParameters":
        """The same system with all failure/recovery processes switched off."""
        return replace(
            self, nodes=tuple(node.without_failures() for node in self.nodes)
        )

    def with_delay_per_task(self, mean_delay_per_task: float) -> "SystemParameters":
        """The same system with a different mean per-task transfer delay."""
        return replace(
            self,
            delay=self.delay.with_mean_delay_per_task(mean_delay_per_task),
            pairwise_delay_overrides=tuple(
                ((s, d), m.with_mean_delay_per_task(mean_delay_per_task))
                for (s, d), m in self.pairwise_delay_overrides
            ),
        )

    def with_nodes(self, nodes: Iterable[NodeParameters]) -> "SystemParameters":
        """The same delay model with a different set of nodes."""
        return replace(self, nodes=tuple(nodes))

    def with_pairwise_delays(
        self, overrides: Iterable[Tuple[Tuple[int, int], TransferDelayModel]]
    ) -> "SystemParameters":
        """Attach per-link delay overrides."""
        return replace(self, pairwise_delay_overrides=tuple(overrides))

    def require_two_nodes(self) -> None:
        """Raise if this is not a two-node system (needed by eq. (4)/(5))."""
        if self.num_nodes != 2:
            raise ValueError(
                "the closed-form regeneration analysis of the paper applies to "
                f"two-node systems; this system has {self.num_nodes} nodes "
                "(use repro.core.multinode for the n-node generalisation)"
            )


def paper_parameters(
    mean_delay_per_task: float = PAPER_MEAN_DELAY_PER_TASK,
    with_failures: bool = True,
    delay_kind: str = "exponential",
) -> SystemParameters:
    """The two-node system used throughout the paper's evaluation.

    Node 1 is the 1 GHz Transmeta Crusoe laptop (1.08 tasks/s), node 2 the
    2.66 GHz Pentium 4 desktop (1.86 tasks/s).  Both nodes have a mean time
    to failure of 20 s; mean recovery times are 10 s and 20 s respectively.
    """
    recovery_rates = tuple(1.0 / t for t in PAPER_MEAN_RECOVERY_TIMES)
    failure_rate = 1.0 / PAPER_MEAN_FAILURE_TIME if with_failures else 0.0
    nodes = tuple(
        NodeParameters(
            service_rate=rate,
            failure_rate=failure_rate,
            recovery_rate=recovery if with_failures else 0.0,
            name=name,
        )
        for rate, recovery, name in zip(
            PAPER_SERVICE_RATES, recovery_rates, ("crusoe", "p4")
        )
    )
    return SystemParameters(
        nodes=nodes,
        delay=TransferDelayModel(
            mean_delay_per_task=mean_delay_per_task, kind=delay_kind
        ),
    )


def homogeneous_parameters(
    num_nodes: int,
    service_rate: float,
    failure_rate: float = 0.0,
    recovery_rate: float = 0.0,
    mean_delay_per_task: float = PAPER_MEAN_DELAY_PER_TASK,
) -> SystemParameters:
    """A convenience constructor for a homogeneous ``num_nodes``-node system."""
    if num_nodes < 1:
        raise ValueError(f"num_nodes must be >= 1, got {num_nodes!r}")
    node = NodeParameters(
        service_rate=service_rate,
        failure_rate=failure_rate,
        recovery_rate=recovery_rate,
    )
    return SystemParameters(
        nodes=tuple(replace(node, name=f"node-{i}") for i in range(num_nodes)),
        delay=TransferDelayModel(mean_delay_per_task=mean_delay_per_task),
    )


def validate_workload(workload: Sequence[int], params: Optional[SystemParameters] = None) -> Tuple[int, ...]:
    """Validate an initial workload vector ``(m_1, ..., m_n)``.

    Returns the workload as a tuple of non-negative integers; raises
    ``ValueError`` when entries are negative or non-integral, and checks the
    length against ``params`` when given.
    """
    result = []
    for value in workload:
        as_int = int(value)
        if as_int != value or as_int < 0:
            raise ValueError(
                f"workload entries must be non-negative integers, got {value!r}"
            )
        result.append(as_int)
    if params is not None and len(result) != params.num_nodes:
        raise ValueError(
            f"workload has {len(result)} entries for a {params.num_nodes}-node system"
        )
    return tuple(result)

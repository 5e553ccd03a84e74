"""The :class:`DistributedSystem` façade: one simulated realisation.

One realisation executes the workload under a given load-balancing policy
and reports the *overall completion time*, the instant the last task in the
system (queued, in service or in transit) finishes.  It is the Monte-Carlo
counterpart of the paper's wireless-LAN experiments.

The realisation is one next-event loop over plain per-node state and one
heap of ``(time, seq, kind, node, payload)`` tuples.  The clocks on the
heap are each node's service completion, each node's alternating
failure/recovery clock and each batch in flight; ``seq`` breaks ties at
one instant in the order the clocks were set.  A node holds a FIFO queue of
the residual service times of its waiting tasks (``None`` for a task that
has not been started), so a preempted task keeps its residual wherever a
policy sends it.  A preempted task's completion entry stays on the heap and
is dropped when popped: each node remembers the ``seq`` of the completion it
is waiting for.

Every clock draws from its own named stream, built at its first draw
(see "Reference stream contract" in ``docs/backends.md``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import count
from math import inf
from typing import Callable, Deque, List, Optional, Sequence, Tuple, Union

from repro.cluster.network import TransferRecord, sample_batch_delay
from repro.cluster.trace import SystemTrace, TraceEvent
from repro.cluster.workload import Workload
from repro.core.parameters import SystemParameters
from repro.core.policies.base import LoadBalancingPolicy, Transfer
from repro.sim.rng import RandomStreams, SeedLike, exponential_draws


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


# Kinds of heap entries.
_COMPLETE, _ARRIVE, _FAIL, _RECOVER = range(4)

_PREEMPTION_MODES = ("resume", "restart")


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
        What a failure does to the task in service: ``"resume"`` keeps its
        residual service time, ``"restart"`` redraws it when it restarts.
        Both are statistically identical for exponential service.
    record_trace:
        Record queue-length trajectories and discrete events (Fig. 4).
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
    ) -> None:
        self.params = params
        self.policy = policy
        self.workload = workload if isinstance(workload, Workload) else Workload(tuple(workload))
        if self.workload.num_nodes != params.num_nodes:
            raise ValueError(
                f"workload spans {self.workload.num_nodes} nodes but the system "
                f"has {params.num_nodes}"
            )
        if preemption not in _PREEMPTION_MODES:
            raise ValueError(
                f"preemption must be one of {_PREEMPTION_MODES}, got {preemption!r}"
            )
        self.streams = streams if streams is not None else RandomStreams(seed)
        self.trace = SystemTrace(params.num_nodes) if record_trace else None
        self._resume = preemption == "resume"

        nodes = params.nodes
        num_nodes = len(nodes)
        # ``1 / rate`` is the scale ``Exponential(rate).sample`` draws with.
        self._service_scales = [1.0 / node.service_rate for node in nodes]
        self._failure_scales = [
            1.0 / node.failure_rate if node.failure_rate > 0 else None for node in nodes
        ]
        self._recovery_scales = [
            1.0 / node.recovery_rate if node.recovery_rate > 0 else None
            for node in nodes
        ]
        # Draw functions and the network stream, each built at its first draw.
        self._service_draws: List[Optional[Callable[[float], float]]] = [None] * num_nodes
        self._clock_draws: List[Optional[Callable[[float], float]]] = [None] * num_nodes
        self._network_rng = None

        # -- per-node state --------------------------------------------------
        self._up = [node.initially_up for node in nodes]
        self._waiting: List[Deque[Optional[float]]] = [
            deque([None] * tasks) for tasks in self.workload
        ]
        # ``seq`` of the completion entry of the task in service, or None.
        self._serving: List[Optional[int]] = [None] * num_nodes
        self._started = [0.0] * num_nodes
        self._durations = [0.0] * num_nodes
        self._completed = [0] * num_nodes
        self._failures = [0] * num_nodes
        self._recoveries = [0] * num_nodes
        self._busy_time = [0.0] * num_nodes

        self._heap: list = []
        self._next_seq = count().__next__
        self._records: List[TransferRecord] = []
        self._now = 0.0
        self._outstanding = self.workload.total

        # -- the initial workload and the policy's t = 0 action ------------------
        if self.trace is not None:
            for index, tasks in enumerate(self.workload):
                self.trace.record_queue(index, 0.0, tasks)
        self.initial_transfers = self._execute_initial_transfers()

        # -- the clocks at t = 0, after the initial transfers -----------------------
        for index in range(num_nodes):
            if not self._up[index]:
                self._set_clock(index, _RECOVER, self._recovery_scales[index])
                continue
            if self._waiting[index]:
                self._start(index)
            if self._failure_scales[index] is not None:
                self._set_clock(index, _FAIL, self._failure_scales[index])

    # -- set-up helpers ---------------------------------------------------------

    def _execute_initial_transfers(self) -> List[Transfer]:
        requested = self.policy.initial_transfers(tuple(self.workload), self.params)
        executed: List[Transfer] = []
        for transfer in requested:
            if transfer.is_empty:
                continue
            batch = self._take(transfer.source, transfer.num_tasks)
            if not batch:
                continue
            self._ship(transfer.source, transfer.destination, batch, "initial")
            executed.append(
                Transfer(transfer.source, transfer.destination, len(batch))
            )
        return executed

    # -- clocks -------------------------------------------------------------------

    def _start(self, node: int) -> None:
        """Start the task at the head of ``node``'s queue (the loop inlines this)."""
        residual = self._waiting[node].popleft()
        if residual is None:
            draw = self._service_draws[node] or self._service_draw(node)
            residual = draw(self._service_scales[node])
        self._started[node] = self._now
        self._durations[node] = residual
        seq = self._next_seq()
        self._serving[node] = seq
        heappush(self._heap, (self._now + residual, seq, _COMPLETE, node, None))

    def _service_draw(self, node: int) -> Callable[[float], float]:
        draw = exponential_draws(self.streams.stream(f"node-{node}.service"))
        self._service_draws[node] = draw
        return draw

    def _set_clock(self, node: int, kind: int, scale: float) -> None:
        """Set ``node``'s failure or recovery clock from the current instant."""
        draw = self._clock_draws[node]
        if draw is None:
            draw = exponential_draws(self.streams.stream(f"node-{node}.failure"))
            self._clock_draws[node] = draw
        heappush(self._heap, (self._now + draw(scale), self._next_seq(), kind, node, None))

    # -- transfers ------------------------------------------------------------------

    def _take(self, node: int, num_tasks: int) -> List[Optional[float]]:
        """Remove up to ``num_tasks`` *waiting* tasks of ``node``, newest first.

        The task in service is never taken: its execution context lives on
        the node (the paper's backup system restores it after a recovery).
        """
        if num_tasks < 0:
            raise ValueError(f"num_tasks must be >= 0, got {num_tasks!r}")
        queue = self._waiting[node]
        taken = [queue.pop() for _ in range(min(num_tasks, len(queue)))]
        if taken and self.trace is not None:
            self.trace.record_queue(node, self._now, self._queue_length(node))
        return taken

    def _ship(
        self, source: int, destination: int, batch: List[Optional[float]], reason: str
    ) -> None:
        """Put ``batch`` on the network, to arrive after a random delay."""
        rng = self._network_rng
        if rng is None:
            rng = self._network_rng = self.streams.stream("network.delay")
        delay = sample_batch_delay(
            self.params.delay_model(source, destination), len(batch), rng
        )
        record = TransferRecord(
            source=source,
            destination=destination,
            num_tasks=len(batch),
            started_at=self._now,
            delay=delay,
            reason=reason,
        )
        self._records.append(record)
        if self.trace is not None:
            self.trace.record_event(
                TraceEvent(
                    self._now,
                    "transfer_started",
                    node=source,
                    detail=f"{record.num_tasks} tasks to node {destination}",
                )
            )
        heappush(
            self._heap,
            (self._now + delay, self._next_seq(), _ARRIVE, destination, (record, batch)),
        )

    # -- rare events --------------------------------------------------------------------

    def _arrive(self, node: int, record: TransferRecord, batch: List[Optional[float]]) -> None:
        record.arrived_at = self._now
        self._waiting[node].extend(batch)
        if self.trace is not None:
            self.trace.record_queue(node, self._now, self._queue_length(node))
            self.trace.record_event(
                TraceEvent(
                    self._now,
                    "transfer_arrived",
                    node=node,
                    detail=f"{record.num_tasks} tasks from node {record.source}",
                )
            )
        # A batch delivered to a down node waits for its recovery.
        if self._up[node] and self._serving[node] is None:
            self._start(node)

    def _fail(self, node: int) -> None:
        now = self._now
        self._up[node] = False
        self._failures[node] += 1
        if self.trace is not None:
            self.trace.record_event(TraceEvent(now, "failure", node=node))
        # The policy sees the task in service in the failed node's queue,
        # but the backup may ship only waiting tasks.
        requested = self.policy.on_failure(
            node, self.queue_sizes(), self.params, time=now
        )
        for transfer in requested:
            if transfer.source != node:
                raise ValueError(
                    "a failure-time transfer can only ship tasks away from the "
                    f"failed node (policy requested {transfer.source} -> "
                    f"{transfer.destination})"
                )
            if transfer.is_empty:
                continue
            batch = self._take(node, transfer.num_tasks)
            if not batch:
                break
            self._ship(node, transfer.destination, batch, "failure-compensation")
        # Only now is the task in service preempted: it goes back to the
        # head of the queue with its residual.
        if self._serving[node] is not None:
            elapsed = now - self._started[node]
            self._busy_time[node] += elapsed
            residual = max(self._durations[node] - elapsed, 0.0)
            self._waiting[node].appendleft(residual if self._resume else None)
            self._serving[node] = None
        self._set_clock(node, _RECOVER, self._recovery_scales[node])

    def _recover(self, node: int) -> None:
        now = self._now
        self._up[node] = True
        self._recoveries[node] += 1
        if self.trace is not None:
            self.trace.record_event(TraceEvent(now, "recovery", node=node))
        # The policy acts before the recovered node restarts its service, so
        # it may take every waiting task, the preempted one included.
        requested = self.policy.on_recovery(
            node, self.queue_sizes(), self.params, time=now
        )
        for transfer in requested:
            batch = self._take(transfer.source, transfer.num_tasks)
            if batch:
                self._ship(transfer.source, transfer.destination, batch, "recovery")
        if self._failure_scales[node] is not None:
            self._set_clock(node, _FAIL, self._failure_scales[node])
        if self._waiting[node]:
            self._start(node)

    # -- observation --------------------------------------------------------------

    def _queue_length(self, node: int) -> int:
        return len(self._waiting[node]) + (self._serving[node] is not None)

    def queue_sizes(self) -> Tuple[int, ...]:
        """Current queue length (waiting + in service) of every node."""
        return tuple(
            len(queue) + (serving is not None)
            for queue, serving in zip(self._waiting, self._serving)
        )

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
            Optional bound on simulated time.  If the workload has not
            completed by then an :class:`IncompleteSimulationError` is
            raised (this guards against parameterisations where completion is
            impossible, e.g. a permanently failed node holding tasks).
        """
        if horizon is not None and horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {horizon!r}")
        limit = inf if horizon is None else horizon
        heap = self._heap
        waiting = self._waiting
        serving = self._serving
        started = self._started
        durations = self._durations
        completed = self._completed
        busy_time = self._busy_time
        service_draws = self._service_draws
        service_scales = self._service_scales
        next_seq = self._next_seq
        trace = self.trace
        outstanding = self._outstanding
        time = self._now
        while outstanding:
            time, seq, kind, node, payload = heappop(heap)
            if time > limit:
                self._outstanding = outstanding
                raise IncompleteSimulationError(
                    f"workload incomplete after horizon={horizon} "
                    f"({outstanding} tasks outstanding)"
                )
            if kind == _COMPLETE:
                if serving[node] != seq:
                    continue  # the completion of a preempted task
                busy_time[node] += time - started[node]
                completed[node] += 1
                outstanding -= 1
                queue = waiting[node]
                if trace is not None:
                    trace.record_queue(node, time, len(queue))
                    trace.record_event(TraceEvent(time, "task_completed", node=node))
                    if not outstanding:
                        trace.record_event(TraceEvent(time, "completion"))
                if queue:
                    # ``_start``, inlined: this is one step per task.
                    residual = queue.popleft()
                    if residual is None:
                        draw = service_draws[node] or self._service_draw(node)
                        residual = draw(service_scales[node])
                    started[node] = time
                    durations[node] = residual
                    seq = next_seq()
                    serving[node] = seq
                    heappush(heap, (time + residual, seq, _COMPLETE, node, None))
                else:
                    serving[node] = None
                continue
            self._now = time
            self._outstanding = outstanding
            if kind == _ARRIVE:
                self._arrive(node, *payload)
            elif kind == _FAIL:
                self._fail(node)
            else:
                self._recover(node)
        self._now = time
        self._outstanding = outstanding

        return SimulationResult(
            completion_time=self._now,
            policy_name=self.policy.name,
            workload=tuple(self.workload),
            total_tasks=self.workload.total,
            tasks_completed_per_node=tuple(self._completed),
            failures_per_node=tuple(self._failures),
            recoveries_per_node=tuple(self._recoveries),
            busy_time_per_node=tuple(self._busy_time),
            initial_transfers=list(self.initial_transfers),
            transfer_records=list(self._records),
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

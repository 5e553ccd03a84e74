"""Complete test-bed experiments (the "Exp." columns of Tables 1 and 2).

The paper's test-bed (Section 3) runs three software layers on every node —
*application* (matrix-row tasks of random size), *communication* (UDP
state packets and TCP task batches over one wireless medium) and
*load-balancing / failure* (the joint ``t = 0`` decision, taken from the
exchanged state, and the backup role that ships the compensation load at
a failure) — plus a process that injects failures and recoveries.  A
:class:`TestbedExperiment` emulates one experiment as one next-event loop
over plain per-node state and one heap of ``(time, seq, kind, node,
payload)`` tuples, like :class:`~repro.cluster.system.DistributedSystem`;
``seq`` breaks ties at one instant in the order the clocks were set.  The
clocks stand for the layers:

* application — each node's service completion; a task of size ``s`` runs
  for ``s / (λ_d · mean_task_size)`` seconds on node *d*
  (:meth:`~repro.testbed.application.ApplicationLayer.execution_time`);
* communication — each state packet in flight, the shared medium's grant
  to the next task batch, and each batch in flight;
* load balancing — each node's synchronisation rounds before its ``t = 0``
  decision, and its periodic resynchronisation broadcasts;
* failure injection — each node's alternating failure/recovery clock.

A node holds a FIFO queue of ``(size, residual)`` pairs: a task's size and
the residual service time it kept from a preemption (``None`` for a task
never started).  What the run differs in from the Monte-Carlo model is
what the test-bed differs in: decisions rest on delayed, possibly lost
state packets, batches share one medium, and each batch pays a protocol
overhead.  :meth:`TestbedExperiment.run_many` repeats the experiment (20
realisations in the paper's Table 1, 60 for its LBP-2 runs) with
independent random streams.

Stream contract.  Every clock draws from its own named stream:

* ``testbed.workload`` — one size per task, node by node,
  ``max(float(rng.exponential(1.0 / (1.0 / mean_task_size))), 1e-9)``;
* ``testbed.channel`` — per state packet, peer by peer, ``rng.random()``
  for the loss test (drawn even at zero loss), then
  ``float(rng.exponential(state_delay_mean))`` if the packet is not lost
  and the mean is positive; per task batch, when the medium is granted to
  it, ``per_transfer_overhead + sample_batch_delay(params.delay_model(s,
  d), n, rng)``;
* ``testbed.node-<i>.failure`` — node *i*'s up and down times,
  alternately, ``float(rng.exponential(1.0 / rate))`` (a node that starts
  down draws its down time first).

Every clock is set at ``now + delay``, so the synchronisation rounds land
at ``0.05``, ``0.1`` and ``0.15000000000000002`` for the default
``sync_wait``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import count
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cluster.network import sample_batch_delay
from repro.cluster.workload import Workload
from repro.core.parameters import SystemParameters
from repro.core.policies.base import LoadBalancingPolicy, Transfer
from repro.montecarlo.statistics import SummaryStatistics, summarize
from repro.sim.rng import RandomStreams, SeedLike, spawn_seeds
from repro.testbed.application import ApplicationLayer, MatrixWorkloadGenerator


@dataclass(frozen=True)
class TestbedConfig:
    """Tunables of the test-bed emulation that are not part of the model.

    The defaults are small compared to the task service times, matching the
    paper's observation that state packets are 20–34 bytes while data
    packets carry whole task batches.  ``resync_interval`` is the period
    of the routine state broadcasts, or ``None`` for none.
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
        if self.resync_interval is not None and not self.resync_interval > 0:
            raise ValueError(
                f"resync_interval must be None or positive, got {self.resync_interval!r}"
            )
        if self.mean_task_size <= 0:
            raise ValueError("mean_task_size must be positive")


@dataclass
class MessageLog:
    """Counters describing the traffic generated during one experiment."""

    state_messages_sent: int = 0
    state_messages_lost: int = 0
    data_messages_sent: int = 0
    data_tasks_sent: int = 0
    data_transfer_time: float = 0.0


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


# Kinds of heap entries.
(
    _COMPLETE, _STATE, _GRANT, _DELIVER, _SYNC, _RESYNC, _FAIL, _RECOVER,
    _DONE, _HORIZON, _STOP,
) = range(11)

#: A node broadcasts its initial count in this many synchronisation rounds
#: (UDP packets can be lost), and decides after this many rounds at most.
_SYNC_BROADCASTS = 3
_MAX_SYNC_ROUNDS = 10

#: A waiting task: its size and its residual service time (``None`` if
#: never started).
_Waiting = Tuple[float, Optional[float]]


class TestbedExperiment:
    """One emulated wireless-test-bed experiment.

    (The leading "Test" in the class name refers to the paper's test-bed;
    the ``__test__ = False`` marker below keeps pytest from trying to collect
    it as a test case when it is imported inside test modules.)

    A run draws from the ``testbed.*`` streams of the module docstring and
    handles the events of one instant by these rules:

    * **Start.** At ``t = 0`` every node that is up starts its first task,
      in node order.  Then each node, in node order, sets its first
      synchronisation round, its resynchronisation clock and its
      failure/recovery clock; then each node, in node order, broadcasts
      its initial count (round 0).
    * **Synchronisation.** A node broadcasts its initial count in rounds
      0–2, ``sync_wait`` apart.  From round 2 on it decides as soon as it
      has heard from every peer; after round 9 it decides regardless.
    * **Decision.** The policy's ``initial_transfers`` sees the last queue
      size heard from each peer (0 if none) and the node's own *initial*
      count.  The node runs only its own non-empty transfers, each on its
      newest waiting tasks; a transfer that finds no task is skipped.
    * **Failure.** ``on_failure`` sees the node's queue with its task in
      service.  A transfer from another node and an empty one are skipped;
      the first transfer that finds no waiting task ends the episode.
      Only then does the task in service go back to the head of the queue,
      with residual ``max(duration - (now - start), 0.0)``.  Then the
      recovery clock is drawn.
    * **Recovery.** The node draws its failure clock, broadcasts its queue
      size (waiting plus in service) and restarts its queue head.  The
      policy's ``on_recovery`` is never consulted.
    * **State packets.** A packet replaces what its receiver last heard
      from the sender if its sequence number is at least as high.  Every
      node rebroadcasts its queue size every ``resync_interval``, up or
      down.
    * **Medium.** It carries one batch at a time.  A batch sent while the
      medium is free is granted it at the same instant, by an entry that
      draws the batch's delay when it is handled; a batch sent while it is
      busy waits in FIFO order, and is granted the medium when the batch
      ahead of it is delivered, before that batch joins its receiver's
      queue.  An idle node that is up starts a delivered batch at once; a
      down node keeps it until it recovers.
    * **Order.** Within one event, the clocks it sets come first, then
      the state packets it sends, then the medium grants and the task it
      starts.
    * **Completion.** Without a horizon the run ends when the last task
      completes.  With one it ends, at the earlier of the last completion
      and the horizon, after the entries already on the heap for that
      instant.  An empty workload completes at ``0.0``, after the
      ``t = 0`` broadcasts.  A task's recorded execution time is its size
      over ``λ_d · mean_task_size`` of the node that completes it.

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
    streams:
        A :class:`~repro.sim.rng.RandomStreams` instance (overrides ``seed``).
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

        nodes = params.nodes
        num_nodes = len(nodes)
        generator = MatrixWorkloadGenerator(mean_size=self.config.mean_task_size)
        sizes = generator.generate(tuple(self.workload), self.streams.stream("testbed.workload"))
        self._execution_time = [
            ApplicationLayer(node.service_rate, generator).execution_time for node in nodes
        ]
        self._channel_rng = self.streams.stream("testbed.channel")
        self._clock_rngs = [
            self.streams.stream(f"testbed.node-{index}.failure") for index in range(num_nodes)
        ]
        self._log = MessageLog()

        # -- per-node state --------------------------------------------------
        self._up = [node.initially_up for node in nodes]
        self._waiting: List[Deque[_Waiting]] = [
            deque((size, None) for size in node_sizes) for node_sizes in sizes
        ]
        # ``seq`` of the completion entry of the task in service, or None.
        self._serving: List[Optional[int]] = [None] * num_nodes
        self._serving_size = [0.0] * num_nodes
        self._started = [0.0] * num_nodes
        self._durations = [0.0] * num_nodes
        self._completed = [0] * num_nodes
        self._failures = [0] * num_nodes
        self._execution_times: List[List[float]] = [[] for _ in nodes]
        # ``_heard[i][j]``: the (sequence number, queue size) node i last
        # heard from node j, its own last broadcast included.
        self._heard: List[List[Optional[Tuple[int, int]]]] = [
            [None] * num_nodes for _ in nodes
        ]
        self._broadcasts = [0] * num_nodes
        self._initial_transfers: List[List[Transfer]] = [[] for _ in nodes]
        self._compensation_transfers: List[List[Transfer]] = [[] for _ in nodes]
        self._medium_busy = False
        self._medium_queue: Deque[tuple] = deque()

        self._heap: list = []
        self._next_seq = count().__next__
        self._now = 0.0
        self._started_up = False
        self._outstanding = self.workload.total
        self._completed_at: Optional[float] = None
        if self._outstanding == 0:
            self._completed_at = 0.0
            self._push(0.0, _DONE, -1, None)
        self._result: Optional[TestbedResult] = None

    # -- clocks -------------------------------------------------------------------

    def _push(self, time: float, kind: int, node: int, payload) -> None:
        heappush(self._heap, (time, self._next_seq(), kind, node, payload))

    def _set_clock(self, node: int, kind: int, rate: float) -> None:
        """Set ``node``'s failure or recovery clock from the current instant."""
        delay = float(self._clock_rngs[node].exponential(1.0 / rate))
        self._push(self._now + delay, kind, node, None)

    def _start_up(self) -> None:
        config = self.config
        for index, up in enumerate(self._up):
            if up and self._waiting[index]:
                self._start(index)
        for index, node in enumerate(self.params.nodes):
            self._push(self._now + config.sync_wait, _SYNC, index, 0)
            if config.resync_interval is not None:
                self._push(self._now + config.resync_interval, _RESYNC, index, None)
            if not self._up[index]:
                self._set_clock(index, _RECOVER, node.recovery_rate)
            elif node.can_fail:
                self._set_clock(index, _FAIL, node.failure_rate)
        for index in range(len(self._up)):
            self._broadcast(index, self.workload.count(index))

    def _start(self, node: int) -> None:
        """Start the task at the head of ``node``'s queue."""
        size, residual = self._waiting[node].popleft()
        duration = self._execution_time[node](size) if residual is None else residual
        self._serving_size[node] = size
        self._started[node] = self._now
        self._durations[node] = duration
        seq = self._next_seq()
        self._serving[node] = seq
        heappush(self._heap, (self._now + duration, seq, _COMPLETE, node, None))

    def _queue_size(self, node: int) -> int:
        """``node``'s queue length: waiting tasks plus the one in service."""
        return len(self._waiting[node]) + (self._serving[node] is not None)

    # -- communication --------------------------------------------------------------

    def _broadcast(self, node: int, queue_size: int) -> None:
        """Send ``node``'s queue size to every peer as a state packet."""
        config = self.config
        rng = self._channel_rng
        log = self._log
        self._broadcasts[node] += 1
        sequence = self._broadcasts[node]
        self._heard[node][node] = (sequence, queue_size)
        for peer in range(len(self._up)):
            if peer == node:
                continue
            log.state_messages_sent += 1
            if rng.random() < config.state_loss_probability:
                log.state_messages_lost += 1
                continue
            delay = (
                float(rng.exponential(config.state_delay_mean))
                if config.state_delay_mean > 0
                else 0.0
            )
            self._push(self._now + delay, _STATE, peer, (node, sequence, queue_size))

    def _known_queue_sizes(self, node: int) -> List[int]:
        """The queue sizes ``node`` last heard (0 for a peer not heard from)."""
        return [0 if heard is None else heard[1] for heard in self._heard[node]]

    def _take(self, node: int, num_tasks: int) -> List[_Waiting]:
        """Remove up to ``num_tasks`` *waiting* tasks of ``node``, newest first."""
        queue = self._waiting[node]
        return [queue.pop() for _ in range(min(num_tasks, len(queue)))]

    def _send(self, batches: List[tuple]) -> None:
        """Put ``(source, destination, tasks)`` batches on the medium, in order."""
        log = self._log
        for batch in batches:
            log.data_messages_sent += 1
            log.data_tasks_sent += len(batch[2])
            if self._medium_busy:
                self._medium_queue.append(batch)
            else:
                self._medium_busy = True
                self._push(self._now, _GRANT, -1, batch)

    # -- load balancing and failures ---------------------------------------------------

    def _decide(self, node: int) -> None:
        initial = self.workload.count(node)
        known = self._known_queue_sizes(node)
        known[node] = initial
        batches = []
        for transfer in self.policy.initial_transfers(known, self.params):
            if transfer.source != node or transfer.is_empty:
                continue  # every node only executes its own outgoing transfers
            tasks = self._take(node, transfer.num_tasks)
            if not tasks:
                continue
            batches.append((node, transfer.destination, tasks))
            self._initial_transfers[node].append(
                Transfer(transfer.source, transfer.destination, len(tasks))
            )
        self._send(batches)

    def _fail(self, node: int) -> None:
        now = self._now
        self._up[node] = False
        self._failures[node] += 1
        known = self._known_queue_sizes(node)
        known[node] = self._queue_size(node)
        batches = []
        for transfer in self.policy.on_failure(node, known, self.params, time=now):
            if transfer.source != node or transfer.is_empty:
                continue
            tasks = self._take(node, transfer.num_tasks)
            if not tasks:
                break
            batches.append((node, transfer.destination, tasks))
            self._compensation_transfers[node].append(
                Transfer(transfer.source, transfer.destination, len(tasks))
            )
        # Only now is the task in service preempted: it goes back to the
        # head of the queue with its residual.
        if self._serving[node] is not None:
            residual = max(self._durations[node] - (now - self._started[node]), 0.0)
            self._waiting[node].appendleft((self._serving_size[node], residual))
            self._serving[node] = None
        self._set_clock(node, _RECOVER, self.params.node(node).recovery_rate)
        self._send(batches)

    def _recover(self, node: int) -> None:
        self._up[node] = True
        params = self.params.node(node)
        if params.can_fail:
            self._set_clock(node, _FAIL, params.failure_rate)
        self._broadcast(node, self._queue_size(node))
        if self._waiting[node]:
            self._start(node)

    # -- execution ------------------------------------------------------------------

    def run(self, horizon: Optional[float] = None) -> TestbedResult:
        """Run the experiment to completion and return its summary.

        With a ``horizon``, a run that has not completed ``horizon``
        seconds after it started raises :class:`RuntimeError`; a later
        ``run`` continues the same experiment.  Once the experiment has
        completed, every ``run`` returns the same result.
        """
        if self._result is not None:
            return self._result
        if horizon is not None:
            if not horizon >= 0:  # NaN included
                raise ValueError(f"horizon must be non-negative, got {horizon!r}")
            self._push(self._now + horizon, _HORIZON, -1, None)
        if not self._started_up:
            self._started_up = True
            self._start_up()

        config = self.config
        heap = self._heap
        up = self._up
        waiting = self._waiting
        serving = self._serving
        execution_time = self._execution_time
        execution_times = self._execution_times
        stopping = False
        while True:
            time, seq, kind, node, payload = heappop(heap)
            self._now = time
            if kind == _COMPLETE:
                if serving[node] != seq:
                    continue  # the completion of a preempted task
                self._completed[node] += 1
                execution_times[node].append(execution_time[node](self._serving_size[node]))
                self._outstanding -= 1
                if self._outstanding == 0:
                    self._completed_at = time
                    self._push(time, _DONE, -1, None)
                if waiting[node]:
                    self._start(node)
                else:
                    serving[node] = None
            elif kind == _STATE:
                sender, sequence, queue_size = payload
                heard = self._heard[node]
                if heard[sender] is None or sequence >= heard[sender][0]:
                    heard[sender] = (sequence, queue_size)
            elif kind == _GRANT:
                source, destination, tasks = payload
                delay = config.per_transfer_overhead + sample_batch_delay(
                    self.params.delay_model(source, destination), len(tasks), self._channel_rng
                )
                self._log.data_transfer_time += delay
                self._push(time + delay, _DELIVER, destination, tasks)
            elif kind == _DELIVER:
                if self._medium_queue:
                    self._push(time, _GRANT, -1, self._medium_queue.popleft())
                else:
                    self._medium_busy = False
                waiting[node].extend(payload)
                if up[node] and serving[node] is None:
                    self._start(node)
            elif kind == _SYNC:
                heard_every_peer = None not in self._heard[node]
                if payload == _MAX_SYNC_ROUNDS - 1 or (
                    payload >= _SYNC_BROADCASTS - 1 and heard_every_peer
                ):
                    self._decide(node)
                else:
                    self._push(time + config.sync_wait, _SYNC, node, payload + 1)
                    if payload + 1 < _SYNC_BROADCASTS:
                        self._broadcast(node, self.workload.count(node))
            elif kind == _RESYNC:
                self._push(time + config.resync_interval, _RESYNC, node, None)
                self._broadcast(node, self._queue_size(node))
            elif kind == _FAIL:
                self._fail(node)
            elif kind == _RECOVER:
                self._recover(node)
            elif kind == _STOP or (kind == _DONE and horizon is None):
                break
            elif not stopping:
                # The last completion or the horizon, under a horizon: the
                # run ends after the entries already on the heap for now.
                stopping = True
                self._push(time, _STOP, -1, None)

        if self._completed_at is None:
            raise RuntimeError(
                f"test-bed run incomplete after horizon={horizon} "
                f"({self._outstanding} tasks outstanding)"
            )
        self._result = TestbedResult(
            completion_time=float(self._completed_at),
            policy_name=self.policy.name,
            workload=tuple(self.workload),
            tasks_completed_per_node=tuple(self._completed),
            failures_per_node=tuple(self._failures),
            execution_times_per_node={
                index: np.array(times) for index, times in enumerate(execution_times)
            },
            message_log=self._log,
            initial_transfers=[t for node in self._initial_transfers for t in node],
            compensation_transfers=[
                t for node in self._compensation_transfers for t in node
            ],
        )
        return self._result

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

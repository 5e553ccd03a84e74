"""Dynamic load balancing with external workload arrivals (paper §5 outlook).

The conclusion of the paper sketches how LBP-1/LBP-2 extend to systems where
"new external workloads arrive regularly ... at random instants": simply
execute a balancing episode at every external arrival.  This module
implements that dynamic variant as a simulation model:

* jobs (batches of tasks) arrive according to a Poisson process and are
  assigned to a home node (uniformly or by a user-supplied rule);
* at every arrival the policy's :meth:`initial_transfers` is re-run on the
  *current* queue lengths, and the resulting transfers are executed;
* failure-time behaviour is inherited unchanged from the policy (so a
  dynamic LBP-2 still compensates at every failure instant);
* the reported metrics are throughput and mean job sojourn time over a
  finite horizon, the natural analogues of the overall completion time for
  an open system.

A run is one next-event loop over plain per-node state and one heap of
``(time, seq, kind, node, payload)`` tuples, like
:class:`~repro.cluster.system.DistributedSystem`.  The clocks on the heap
are the external arrival clock, each node's service completion, each
node's alternating failure/recovery clock and each batch in flight;
``seq`` breaks ties at one instant in the order the clocks were set.  A
node holds a FIFO queue of ``(residual, arrived_at)`` pairs, the residual
service time of a waiting task (``None`` for a task never started) and the
instant its job arrived, so a task that a failure preempted keeps both
wherever a policy sends it.

Stream contract.  Every clock draws from its own named stream, built at
its first draw:

* ``dynamic.arrivals`` — per job, in this order: the gap
  ``float(rng.exponential(1 / rate))``, the batch size
  ``max(1, int(rng.poisson(mean_batch_size)))``, the home node
  ``int(rng.integers(0, n))`` (under ``"uniform"`` only), then the next
  job's gap after the balancing episode;
* ``dynamic.node-<i>.service`` — one exponential service time per task
  that starts on node *i* fresh; a preempted task resumes its residual
  without a draw;
* ``dynamic.node-<i>.failure`` — node *i*'s up and down times, alternately
  (a node that starts down draws its down time first);
* ``dynamic.network`` — one delay per batch put on the network,
  ``sample_batch_delay(params.delay_model(s, d), n, rng)``.

Service, failure and recovery times come from
:func:`~repro.sim.rng.exponential_draws` with scale ``1 / rate``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import count
from typing import Callable, Deque, List, Optional, Tuple

import numpy as np

from repro.cluster.network import sample_batch_delay
from repro.core.parameters import SystemParameters
from repro.core.policies.base import LoadBalancingPolicy
from repro.sim.distributions import Exponential
from repro.sim.rng import RandomStreams, SeedLike, exponential_draws

__all__ = ["ArrivalProcessConfig", "DynamicSystem", "DynamicRunResult"]


@dataclass(frozen=True)
class ArrivalProcessConfig:
    """Configuration of the external arrival stream."""

    rate: float
    mean_batch_size: float = 10.0
    assignment: str = "uniform"  # or "fastest", "slowest"

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError(f"arrival rate must be positive, got {self.rate!r}")
        if self.mean_batch_size < 1:
            raise ValueError("mean_batch_size must be at least 1")
        if self.assignment not in ("uniform", "fastest", "slowest"):
            raise ValueError(f"unknown assignment rule {self.assignment!r}")


@dataclass
class DynamicRunResult:
    """Metrics of one dynamic (open-system) run."""

    horizon: float
    jobs_arrived: int
    tasks_arrived: int
    tasks_completed: int
    mean_sojourn_time: float
    completed_sojourn_times: np.ndarray
    balancing_episodes: int
    failures_per_node: Tuple[int, ...]
    queue_lengths_at_end: Tuple[int, ...]

    @property
    def throughput(self) -> float:
        """Tasks completed per unit time over the horizon."""
        if self.horizon == 0:
            return 0.0
        return self.tasks_completed / self.horizon


# Kinds of heap entries.
_COMPLETE, _DELIVER, _FAIL, _RECOVER, _JOB = range(5)

#: A waiting task: its residual service time (``None`` if never started)
#: and the arrival instant of its job.
_Waiting = Tuple[Optional[float], float]


class DynamicSystem:
    """An open distributed system with Poisson job arrivals and re-balancing.

    A run draws from the ``dynamic.*`` streams of the module docstring and
    handles the events of one instant by these rules:

    * **Job arrival.** The new tasks join the home node's queue, the
      policy's ``initial_transfers`` sees every node's queue size (waiting
      plus in service) and its transfers take the newest waiting tasks
      first; only then does an idle home node start a task, so a policy
      may ship every task that just arrived.
    * **Failure.** ``on_failure`` sees the task in service in the failed
      node's queue.  A transfer from another node raises
      :class:`ValueError`, an empty transfer is skipped, and the first take
      that finds the queue empty ends the episode.  Only then does the task
      in service go back to the head of the queue, with residual
      ``max(duration - (now - start), 0.0)``.
    * **Recovery.** The node restarts its queue head.  The policy's
      ``on_recovery`` is never consulted.
    * **Delivery.** A batch delivered to a down node waits for its
      recovery; an idle node that is up starts service at the delivery
      instant.
    * **Horizon.** Only events strictly before the horizon are processed.
      A task's sojourn time is its completion instant minus its job's
      arrival instant; the end queues count waiting tasks and the task in
      service, not tasks in transit.  A second :meth:`run` continues the
      same realisation up to its (later) horizon.

    Parameters
    ----------
    params:
        System parameters (node speeds, failure/recovery rates, delays).
    policy:
        Load-balancing policy; its initial-transfer rule is re-run at every
        job arrival, and its failure-time rule at every failure instant.
    arrivals:
        Arrival-stream configuration.
    seed:
        Root seed of the realisation.
    streams:
        A :class:`~repro.sim.rng.RandomStreams` instance (overrides ``seed``).
    """

    def __init__(
        self,
        params: SystemParameters,
        policy: LoadBalancingPolicy,
        arrivals: ArrivalProcessConfig,
        seed: SeedLike = None,
        streams: Optional[RandomStreams] = None,
    ) -> None:
        self.params = params
        self.policy = policy
        self.arrivals = arrivals
        self.streams = streams if streams is not None else RandomStreams(seed)
        self.jobs_arrived = 0
        self.tasks_arrived = 0
        self.balancing_episodes = 0

        nodes = params.nodes
        num_nodes = len(nodes)
        # ``1 / rate`` is the scale ``Exponential(rate).sample`` draws with;
        # the arrival rate is checked as ``Exponential`` checks it.
        self._gap_scale = Exponential(arrivals.rate).mean
        self._home: Optional[int] = None  # drawn per job under "uniform"
        if arrivals.assignment == "fastest":
            self._home = int(np.argmax(params.service_rates))
        elif arrivals.assignment == "slowest":
            self._home = int(np.argmin(params.service_rates))
        self._service_scales = [1.0 / node.service_rate for node in nodes]
        self._failure_scales = [
            1.0 / node.failure_rate if node.failure_rate > 0 else None for node in nodes
        ]
        self._recovery_scales = [
            1.0 / node.recovery_rate if node.recovery_rate > 0 else None
            for node in nodes
        ]
        # Draw functions and generators, each built at its first draw.
        self._service_draws: List[Optional[Callable[[float], float]]] = [None] * num_nodes
        self._clock_draws: List[Optional[Callable[[float], float]]] = [None] * num_nodes
        self._network_rng: Optional[np.random.Generator] = None

        # -- per-node state --------------------------------------------------
        self._up = [node.initially_up for node in nodes]
        self._waiting: List[Deque[_Waiting]] = [deque() for _ in nodes]
        # ``seq`` of the completion entry of the task in service, or None.
        self._serving: List[Optional[int]] = [None] * num_nodes
        self._started = [0.0] * num_nodes
        self._durations = [0.0] * num_nodes
        self._arrived = [0.0] * num_nodes
        self._failures = [0] * num_nodes
        self._sojourn_times: List[float] = []

        self._heap: list = []
        self._next_seq = count().__next__
        self._now = 0.0

        # -- the clocks at t = 0 ---------------------------------------------
        for index in range(num_nodes):
            if not self._up[index]:
                self._set_clock(index, _RECOVER, self._recovery_scales[index])
            elif self._failure_scales[index] is not None:
                self._set_clock(index, _FAIL, self._failure_scales[index])
        self._arrival_rng = self.streams.stream("dynamic.arrivals")
        self._schedule_job()

    # -- clocks -------------------------------------------------------------------

    def _schedule_job(self) -> None:
        gap = float(self._arrival_rng.exponential(self._gap_scale))
        heappush(self._heap, (self._now + gap, self._next_seq(), _JOB, -1, None))

    def _start(self, node: int) -> None:
        """Start the task at the head of ``node``'s queue (the loop inlines this)."""
        residual, arrived = self._waiting[node].popleft()
        if residual is None:
            draw = self._service_draws[node] or self._service_draw(node)
            residual = draw(self._service_scales[node])
        self._started[node] = self._now
        self._durations[node] = residual
        self._arrived[node] = arrived
        seq = self._next_seq()
        self._serving[node] = seq
        heappush(self._heap, (self._now + residual, seq, _COMPLETE, node, None))

    def _service_draw(self, node: int) -> Callable[[float], float]:
        draw = exponential_draws(self.streams.stream(f"dynamic.node-{node}.service"))
        self._service_draws[node] = draw
        return draw

    def _set_clock(self, node: int, kind: int, scale: float) -> None:
        """Set ``node``'s failure or recovery clock from the current instant."""
        draw = self._clock_draws[node]
        if draw is None:
            draw = exponential_draws(self.streams.stream(f"dynamic.node-{node}.failure"))
            self._clock_draws[node] = draw
        heappush(self._heap, (self._now + draw(scale), self._next_seq(), kind, node, None))

    # -- transfers ------------------------------------------------------------------

    def _take(self, node: int, num_tasks: int) -> List[_Waiting]:
        """Remove up to ``num_tasks`` *waiting* tasks of ``node``, newest first."""
        queue = self._waiting[node]
        return [queue.pop() for _ in range(min(num_tasks, len(queue)))]

    def _ship(self, source: int, destination: int, batch: List[_Waiting]) -> None:
        """Put ``batch`` on the network, to arrive after a random delay."""
        rng = self._network_rng
        if rng is None:
            rng = self._network_rng = self.streams.stream("dynamic.network")
        delay = sample_batch_delay(
            self.params.delay_model(source, destination), len(batch), rng
        )
        heappush(
            self._heap, (self._now + delay, self._next_seq(), _DELIVER, destination, batch)
        )

    # -- events ---------------------------------------------------------------------

    def _job(self) -> None:
        rng = self._arrival_rng
        size = max(1, int(rng.poisson(self.arrivals.mean_batch_size)))
        home = self._home
        if home is None:
            home = int(rng.integers(0, self.params.num_nodes))
        self._waiting[home].extend([(None, self._now)] * size)
        self.jobs_arrived += 1
        self.tasks_arrived += size

        requested = self.policy.initial_transfers(list(self._queue_sizes()), self.params)
        self.balancing_episodes += 1
        for transfer in requested:
            if transfer.is_empty:
                continue
            batch = self._take(transfer.source, transfer.num_tasks)
            if batch:
                self._ship(transfer.source, transfer.destination, batch)
        # Only after the episode does an idle home node start a task.
        if self._up[home] and self._serving[home] is None and self._waiting[home]:
            self._start(home)
        self._schedule_job()

    def _deliver(self, node: int, batch: List[_Waiting]) -> None:
        self._waiting[node].extend(batch)
        # A batch delivered to a down node waits for its recovery.
        if self._up[node] and self._serving[node] is None:
            self._start(node)

    def _fail(self, node: int) -> None:
        now = self._now
        self._up[node] = False
        self._failures[node] += 1
        # The policy sees the task in service in the failed node's queue,
        # but only waiting tasks can be shipped.
        requested = self.policy.on_failure(
            node, self._queue_sizes(), self.params, time=now
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
            self._ship(node, transfer.destination, batch)
        # Only now is the task in service preempted: it goes back to the
        # head of the queue with its residual.
        if self._serving[node] is not None:
            residual = max(self._durations[node] - (now - self._started[node]), 0.0)
            self._waiting[node].appendleft((residual, self._arrived[node]))
            self._serving[node] = None
        self._set_clock(node, _RECOVER, self._recovery_scales[node])

    def _recover(self, node: int) -> None:
        self._up[node] = True
        if self._failure_scales[node] is not None:
            self._set_clock(node, _FAIL, self._failure_scales[node])
        if self._waiting[node]:
            self._start(node)

    def _queue_sizes(self) -> Tuple[int, ...]:
        """Current queue length (waiting + in service) of every node."""
        return tuple(
            len(queue) + (serving is not None)
            for queue, serving in zip(self._waiting, self._serving)
        )

    # -- execution -------------------------------------------------------------------

    def run(self, horizon: float) -> DynamicRunResult:
        """Run the open system for ``horizon`` simulated seconds."""
        if not horizon > 0:  # NaN included
            raise ValueError(f"horizon must be positive, got {horizon!r}")
        if horizon < self._now:
            raise ValueError(
                f"horizon={horizon!r} lies before the end of the previous run "
                f"({self._now!r})"
            )
        heap = self._heap
        waiting = self._waiting
        serving = self._serving
        started = self._started
        durations = self._durations
        arrived = self._arrived
        sojourns = self._sojourn_times
        service_draws = self._service_draws
        service_scales = self._service_scales
        next_seq = self._next_seq
        # The arrival clock is always set, so the heap is never empty.
        while heap[0][0] < horizon:
            time, seq, kind, node, payload = heappop(heap)
            if kind == _COMPLETE:
                if serving[node] != seq:
                    continue  # the completion of a preempted task
                sojourns.append(time - arrived[node])
                queue = waiting[node]
                if queue:
                    # ``_start``, inlined: this is one step per task.
                    residual, arrived[node] = queue.popleft()
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
            if kind == _JOB:
                self._job()
            elif kind == _DELIVER:
                self._deliver(node, payload)
            elif kind == _FAIL:
                self._fail(node)
            else:
                self._recover(node)
        # A later ``run`` continues this realisation from the horizon.
        self._now = float(horizon)

        times = np.asarray(sojourns, dtype=float)
        return DynamicRunResult(
            horizon=float(horizon),
            jobs_arrived=self.jobs_arrived,
            tasks_arrived=self.tasks_arrived,
            tasks_completed=len(sojourns),
            mean_sojourn_time=float(times.mean()) if times.size else float("nan"),
            completed_sojourn_times=times,
            balancing_episodes=self.balancing_episodes,
            failures_per_node=tuple(self._failures),
            queue_lengths_at_end=self._queue_sizes(),
        )
